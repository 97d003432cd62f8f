"""Workload pools and the seeded job lists drawn from them.

A job is one CLI invocation together with the oracle check of its output.
Each workload splits its pool into classes of similar cost; a round takes
the next job of every class, and the classes are shuffled by the seed, so
every round has the same make-up while no job repeats within a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import oracle

WORKLOADS = ("kernel", "glue", "splitting")
DEFAULT_PRIME_BOUND = 19

KERNEL_GROUPS = (
    ["sym:4", "alt:4", "alt:5"]
    + ["dihedral:%d" % n for n in range(10, 16)]
    + ["product:sym:3xsym:3", "product:cyclic:3xsym:3", "elem-abelian:2^4",
       oracle.Q8_DSL, oracle.WREATH_DSL])

GLUE_HEIGHT1_GROUPS = ("sym:4", "dihedral:8", "dihedral:12",
                       "product:cyclic:2xcyclic:8", "product:cyclic:4xcyclic:4")

# (q, D) with q^D <= 5^5: the enumeration of degree-D forms over F_q grows
# like q^D; modp:q=8,deg=4 runs for more than 8 s and modp:q=8,deg=5 for 105 s.
MODP_CASES = tuple((q, d) for q in (2, 3, 4, 5, 8, 9) for d in range(2, 6)
                   if q ** d <= 5 ** 5)
CHAR = {2: 2, 3: 3, 4: 2, 5: 5, 8: 2, 9: 3}
# cyclic orders for splitting: highly composite, prime and in between.  The
# cost of one ku job varies twentyfold over n in 12..45 (n = 43 at bound 200
# takes 7 s), so n is fixed per class and the seed draws the prime bounds.
SPLITTING_N = (12, 23, 30, 42)


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: object          # callable(doc) raising oracle.CheckFailed
    pair: str = ""         # glue: the strong/weak pair this job belongs to

    def label(self):
        return " ".join(self.argv)


def _spectrum(group, theory, *extra):
    return ("spectrum", "--group", group, "--theory", theory) + extra


def _pick_class(rng, G):
    """(order, index) selector of a seeded subgroup class of G."""
    seen = {}
    selectors = []
    for sub, _ in G.classes:
        i = seen.get(len(sub), 0)
        seen[len(sub)] = i + 1
        selectors.append((len(sub), i))
    return rng.choice(selectors)


def _kernel_class(rng, spec):
    G = oracle.group(spec)
    jobs = [Job(("subgroups", "--group", spec),
                partial(oracle.check_subgroups, spec))]
    for kind in ("ordinary", "global", "quillen"):
        order, i = _pick_class(rng, G)
        jobs.append(Job(("weyl", "--group", spec, "--h", "%d:%d" % (order, i),
                         "--kind", kind),
                        partial(oracle.check_weyl, spec, order=order, kind=kind)))
    (ho, hi), (ko, ki) = _pick_class(rng, G), _pick_class(rng, G)
    jobs.append(Job(("double-cosets", "--group", spec, "--h", "%d:%d" % (ho, hi),
                     "--k", "%d:%d" % (ko, ki)),
                    partial(oracle.check_double_cosets, spec,
                            h_order=ho, k_order=ko)))
    for p in (2, 3):
        jobs.append(Job(_spectrum(spec, "height1:p=%d" % p),
                        partial(oracle.check_height1, spec, p=p)))
    jobs.append(Job(_spectrum(spec, "ku"), partial(oracle.check_ku_strata, spec)))
    # modp strata exist only up to 2-rank 2 (elem-abelian:2^4 is a domain error)
    if max(len(s) for s, _ in G.classes
           if G.is_elementary_abelian(s, 2)) <= 4:
        jobs.append(Job(_spectrum(spec, "modp:q=4,deg=1"),
                        partial(oracle.check_modp_strata, spec, p=2)))
    rng.shuffle(jobs)
    return jobs


def _glue_pair(group, theory, check):
    key = "%s|%s" % (group, theory)
    return [Job(_spectrum(group, theory, "--mode", mode), check, pair=key)
            for mode in ("strong", "weak")]


def _glue_classes(rng):
    """Classes whose members are (strong, weak) pairs that run back to back."""
    ku = {n: _glue_pair("cyclic:%d" % n, "ku",
                        partial(oracle.check_ku_cyclic, n, DEFAULT_PRIME_BOUND))
          for n in range(12, 37)}
    other = [_glue_pair("cyclic:%d" % p ** k, "hz:p=%d" % p,
                        partial(oracle.check_hz_cyclic, p, k, DEFAULT_PRIME_BOUND))
             for p, k in ((2, 5), (3, 3), (5, 2))]
    other += [_glue_pair(g, "height1:p=%d" % p,
                         partial(oracle.check_height1, g, p=p))
              for g in GLUE_HEIGHT1_GROUPS for p in (2, 3)]
    few = [n for n in ku if len(oracle.divisors(n)) <= 4]
    classes = [[ku[n] for n in few], [ku[n] for n in ku if n not in few], other]
    for c in classes:
        rng.shuffle(c)
    return classes


def _splitting_classes(rng):
    # ku: one class per n in SPLITTING_N, each member a pair of prime bounds
    # B and 441 - B, so that the pair's cost, close to linear in pi(B), hardly
    # depends on the seed, and both jobs cost about the same.
    classes = []
    for n in SPLITTING_N:
        classes.append([[Job(_spectrum("cyclic:%d" % n, "ku", "--prime-bound", str(b)),
                             partial(oracle.check_ku_cyclic, n, b))
                         for b in (b, 441 - b)] for b in rng.sample(range(181, 221), 12)])
    modp = {True: [], False: []}
    for q, d in MODP_CASES:
        modp[q ** d >= 512].append(Job(
            _spectrum("elem-abelian:%d^2" % CHAR[q], "modp:q=%d,deg=%d" % (q, d)),
            partial(oracle.check_modp_rank2, CHAR[q], q, d)))
    classes += [modp[True], modp[False],
                [Job(("drinfeld-check", "--p", str(p)), partial(oracle.check_drinfeld, p))
                 for p in (5, 7, 11, 13)]]
    for c in classes:
        rng.shuffle(c)
    return classes


def rounds(workload, seed):
    """Yield the run's rounds, each a list of jobs, until a class runs out."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "kernel":
        classes = [_kernel_class(rng, spec) for spec in KERNEL_GROUPS]
        take = [1] * len(classes)
    elif workload == "glue":
        classes = _glue_classes(rng)
        take = [2, 1, 1]
    elif workload == "splitting":
        classes = _splitting_classes(rng)
        take = [1] * len(classes)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    r = 0
    while all((r + 1) * k <= len(c) for c, k in zip(classes, take)):
        batch = []
        for c, k in zip(classes, take):
            for item in c[r * k:(r + 1) * k]:
                batch.extend(item if isinstance(item, list) else [item])
        yield batch
        r += 1
