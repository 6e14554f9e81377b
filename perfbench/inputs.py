"""Seeded input generators that do not call singeq.

Random D2-modules and bounded D2-complexes are built from known
indecomposable pieces, so their isomorphism type is known without asking
the program, and then written in a random basis (a random invertible
change of coordinates in every degree), so that equal isomorphism types
still reach singeq as different presentations.

D2 = F_2[x]/(x^2) acts on its regular module A in the basis (1, x) and on
the simple module k = A/(x).  All matrices are nested lists of ints mod 2.
"""

from __future__ import annotations

import random

X_ON_A = [[0, 0], [1, 0]]  # x . 1 = x, x . x = 0
X_ON_K = [[0]]

# Elementary bounded complexes over D2, top degree first: (terms, diffs)
# where diffs[i] maps terms[i] -> terms[i + 1] (one degree down).
PIECES = [
    (["k"], []),
    (["A"], []),
    (["A", "A"], [[[1, 0], [0, 1]]]),  # A -1-> A, contractible
    (["A", "A"], [X_ON_A]),  # A -x-> A
    (["k", "A"], [[[0], [1]]]),  # socle inclusion k -> A, 1 |-> x
    (["A", "k"], [[[1, 0]]]),  # top projection A -> k
    (["k", "A", "k"], [[[0], [1]], [[1, 0]]]),
    (["A", "A", "A"], [X_ON_A, X_ON_A]),
]

DIM = {"k": 1, "A": 2}
X_ACTION = {"k": X_ON_K, "A": X_ON_A}


def _zeros(r, c):
    return [[0] * c for _ in range(r)]


def _matmul(a, b):
    if not a or not b or not b[0]:
        return _zeros(len(a), len(b[0]) if b else 0)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % 2 for col in cols] for row in a]


def _block_diag(blocks, rows, cols):
    out = _zeros(sum(rows), sum(cols))
    r0 = c0 = 0
    for blk, r, c in zip(blocks, rows, cols):
        for i in range(r):
            for j in range(c):
                out[r0 + i][c0 + j] = blk[i][j] if blk else 0
        r0 += r
        c0 += c
    return out


def random_gl2(rng: random.Random, n: int):
    """(P, P^-1): a random invertible n x n matrix over F_2 and its inverse."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        # row op on P (P <- E P), matching column op on Q (Q <- Q E^-1)
        P[i] = [(a + b) % 2 for a, b in zip(P[i], P[j])]
        for row in Q:
            row[j] = (row[j] + row[i]) % 2
    return P, Q


def random_d2_module(rng: random.Random, kind: str):
    """(kinds, x_action): k, A or A^2 (kind "k", "A" or "A2") in a random basis.

    Left out: sums with both k and A summands, whose complete resolution
    takes the non-periodic branch that raises at this commit (ROADMAP 3(a));
    and k^a for a > 1, whose presentation is unique (x acts as 0), so each
    would be one 1.7-3.7 s cold replacement per run followed by cache hits.
    """
    kinds = {"k": ["k"], "A": ["A"], "A2": ["A", "A"]}[kind]
    dims = [DIM[t] for t in kinds]
    x = _block_diag([X_ACTION[t] for t in kinds], dims, dims)
    P, Q = random_gl2(rng, sum(dims))
    return sorted(kinds), _matmul(_matmul(P, x), Q)


def random_d2_complex(rng: random.Random, length: int = 4, pieces: int = 3):
    """Bounded D2-complex on degrees 0..length-1 as a plain dict.

    Keys: "terms" {degree: (dim, x_action)}, "diffs" {degree n: matrix of
    d_n}, "pieces" (the summands as (piece index, top degree)).
    """
    chosen = []
    for _ in range(rng.randint(1, pieces)):
        idx = rng.randrange(len(PIECES))
        span = len(PIECES[idx][0])
        if span > length:
            continue
        chosen.append((idx, rng.randint(span - 1, length - 1)))
    if not chosen:
        chosen.append((0, 0))
    # per degree: list of (piece number, kind)
    summands = {n: [] for n in range(length)}
    for num, (idx, top) in enumerate(chosen):
        for off, kind in enumerate(PIECES[idx][0]):
            summands[top - off].append((num, kind))
    bases = {}
    terms = {}
    for n in range(length):
        dims = [DIM[k] for _, k in summands[n]]
        total = sum(dims)
        x = _block_diag([X_ACTION[k] for _, k in summands[n]], dims, dims)
        P, Q = random_gl2(rng, total) if total else ([], [])
        bases[n] = (P, Q)
        terms[n] = (total, _matmul(_matmul(P, x), Q) if total else [])
    diffs = {}
    for n in range(1, length):
        src, tgt = summands[n], summands[n - 1]
        d = _zeros(sum(DIM[k] for _, k in tgt), sum(DIM[k] for _, k in src))
        c0 = 0
        for num, kind in src:
            idx, top = chosen[num]
            r0 = 0
            for tnum, tkind in tgt:
                if tnum == num:
                    blk = PIECES[idx][1][top - n]
                    for i in range(DIM[tkind]):
                        for j in range(DIM[kind]):
                            d[r0 + i][c0 + j] = blk[i][j]
                r0 += DIM[tkind]
            c0 += DIM[kind]
        P_t, _ = bases[n - 1]
        _, Q_s = bases[n]
        diffs[n] = _matmul(_matmul(P_t, d), Q_s) if d and d[0] else d
    return {"terms": terms, "diffs": diffs, "pieces": chosen}


class Cycle:
    """Draws ``items`` in seeded shuffled rounds, each item once per round."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pending = []

    def next(self):
        if not self.pending:
            self.pending = self.items[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def blocks(rng: random.Random, weights: dict, count: int):
    """``count`` stratum names drawn in shuffled blocks of fixed proportion.

    Every block holds each name ``weights[name]`` times, so the mix of a
    run does not depend on the seed; the seed fixes the order.
    """
    block = [name for name, w in weights.items() for _ in range(w)]
    out = []
    while len(out) < count:
        b = block[:]
        rng.shuffle(b)
        out.extend(b)
    return out[:count]
