"""Seeded inputs for each workload, generated without importing padr.

Every workload is a sequence of rounds.  A round is a fixed mix of ops;
``--seed`` draws the values inside each op and the order of the round,
and the run issues whole rounds until its time is spent.  Keeping the mix
of a round fixed is what makes one run comparable with the next: the op
costs of tate-fe span three orders of magnitude, so a free draw of a few
dozen ops would measure the luck of the draw, not the program.  Every op
carries its kind, which tells the worker how to run it and the checker
how to judge it.
"""

import math
import random
from fractions import Fraction

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
GAUSS_PRIMES = (11, 13, 17, 19, 23)

# tate-fe: the shapes of the cases in one round.  They are drawn once, with
# this fixed seed, from the distribution of `padr verify tate` (criterion 4):
# p in {3,5,7}, 1-3 balls a + p^k Z_p with a in (1/p^r) [-6,6], r in {0,1},
# k in [-1,2], coefficient in [-3,3] (zero drops the ball), and an
# unramified or conductor-1 character.  A shape keeps what sets an op's
# cost -- p, the character's conductor and order, each ball's level and
# whether its centre has a p in the denominator -- and --seed draws
# everything else.
TATE_SHAPE_SEED = 4
TATE_ROUND = 30


def _tate_shapes():
    rng = random.Random(TATE_SHAPE_SEED)
    shapes = []
    while len(shapes) < TATE_ROUND:
        p = rng.choice([3, 5, 7])
        balls = []
        for _ in range(rng.randint(1, 3)):
            num, r = rng.randint(-6, 6), rng.randint(0, 1)
            k, c = rng.randint(-1, 2), rng.randint(-3, 3)
            if c:
                balls.append((r == 1 and num % p != 0, k))
        # gcd(e, p - 1) sets the order of a ramified character, hence the
        # cyclotomic field its values live in; 0 marks an unramified one
        order = 0 if rng.random() < 0.5 else math.gcd(rng.randint(1, p - 2),
                                                       p - 1)
        if balls:
            shapes.append((p, order, tuple(balls)))
    return shapes


def _tate_op(rng, shape):
    p, order, balls = shape
    terms = []
    for frac_centre, k in balls:
        if frac_centre:
            num = rng.choice([x for x in range(-6, 7) if x % p])
            terms.append([num, p, k, rng.choice([-3, -2, -1, 1, 2, 3])])
        else:
            terms.append([rng.randint(-6, 6), 1, k,
                          rng.choice([-3, -2, -1, 1, 2, 3])])
    if order:
        e = rng.choice([x for x in range(1, p - 1) if math.gcd(x, p - 1) == order])
        chi = {"u": [rng.randint(1, 4), 1], "c": 1, "e": e}
    else:
        chi = {"u": [rng.randint(1, 5), rng.randint(1, 5)], "c": 0, "e": 0}
    return {"p": p, "terms": terms, "chi": chi}


# nabla: the criterion-9 probes (weight, monomials of each component); the
# seed scales every monomial by a non-zero integer, which leaves the
# three-route identity true and the cost unchanged.
NABLA_PROBES = [
    ((0, 0, 1), [[((1, 0, 2, 0), "1")]]),
    ((-1, 0, 2), [[((1, 0, 1, 0), "1")], [((0, 1, 0, 0), "i")]]),
    ((0, 2, 1), [[((0, 0, 2, 0), "1")], [((1, 0, 0, 1), "2")],
                 [((0, 0, 0, 0), "1")]]),
    ((-1, 2, 1), [[((0, 0, 2, 0), "1")], [((1, 0, 1, 0), "1")],
                  [((0, 1, 0, 1), "2")], [((0, 0, 1, 1), "1")]]),
]
NABLA_ORDERS = (0, 1, 2, 3)


def _nabla_round(rng):
    ops = []
    for k, comps in NABLA_PROBES:
        for n in NABLA_ORDERS:
            scaled = [[[list(e), c, rng.choice([-3, -2, -1, 1, 2, 3])]
                       for e, c in comp] for comp in comps]
            ops.append({"kind": "nabla", "k": list(k), "comps": scaled,
                        "n": n})
    for D in (3, 4):
        for pair in range(3):
            ops.append({"kind": "cocycle", "D": D, "pair": pair})
    rng.shuffle(ops)
    return ops


def _ratio(rng):
    return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"


def _at_pole(p, sigma):
    """E_adjoint has a pole where mu/nu is 1, p or 1/p."""
    mu, nu = (Fraction(s) for s in sigma)
    return mu / nu in (1, p, Fraction(1, p))


def _interp_op(rng, p):
    k = sorted(rng.randint(-3, 3) for _ in range(3))
    kp = sorted(rng.randint(-3, 3) for _ in range(2))
    pi = [_ratio(rng) for _ in range(3)]
    sigma = [_ratio(rng) for _ in range(2)]
    # padr crashes at a pole (a known defect, recorded in baseline.json);
    # the benchmark's ops must not fail, so such a sigma is drawn again
    while _at_pole(p, sigma):
        sigma = [_ratio(rng) for _ in range(2)]
    return {"kind": "interp", "p": p, "weights": ",".join(map(str, k)),
            "kp": ",".join(map(str, kp)), "pi": pi, "sigma": sigma}


# cli-stream: what a command-line user runs.  Per round, two `padr interp`
# queries for every prime up to 31, one `padr verify gauss` process with an
# empty cache directory for every P in GAUSS_PRIMES (the write path), and
# one at P = 23 on a cache filled during set-up with the sums of every P in
# GAUSS_PRIMES (the read path; at P = 23 the seed commit reads the cache
# more slowly than it computes the sums).  The cache fill is the only
# set-up work beyond importing padr.
INTERP_PER_PRIME = 2
WARM_PRIMES = (23,)


def _cli_round(rng):
    ops = [_interp_op(rng, p) for p in PRIMES_TO_31 * INTERP_PER_PRIME]
    ops += [{"kind": "gauss-cold", "p": p} for p in GAUSS_PRIMES]
    ops += [{"kind": "gauss-warm", "p": p} for p in WARM_PRIMES]
    rng.shuffle(ops)
    return ops


class Workload:
    """name, why, the worker's set-up request, and the seeded rounds."""

    def __init__(self, name, why, round_fn, prepare=None):
        self.name, self.why = name, why
        self.round_fn = round_fn
        self.prepare = prepare or {}

    def rounds(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.round_fn(rng)


def _tate_round_fn():
    shapes = _tate_shapes()

    def make(rng):
        order = list(range(len(shapes)))
        rng.shuffle(order)
        return [dict(_tate_op(rng, shapes[i]), kind="tate") for i in order]
    return make


WORKLOADS = {
    w.name: w for w in [
        Workload("tate-fe",
                 "hottest path: Fourier transform and Tate integrals in "
                 "ExactScalar up to conductor 343; loads SchwartzFn and the "
                 "scalar kernel, heavy latency tail",
                 _tate_round_fn()),
        Workload("nabla",
                 "three-route nabla agreement and cocycle chain rules; runs "
                 "on diffops RF/SymPoly/QiD and never calls ExactScalar, so "
                 "it bypasses the scalar kernel",
                 _nabla_round),
        Workload("cli-stream",
                 "padr interp queries (LaurentRF, arch; no poles drawn) and "
                 "padr verify gauss processes on an empty and on a filled "
                 "cache (write and read paths); no SchwartzFn, no diffops",
                 _cli_round, {"fill": list(GAUSS_PRIMES)}),
    ]
}
