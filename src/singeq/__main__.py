"""``python -m singeq``: the singeq command line."""

from .cli import main

if __name__ == "__main__":
    main()
