"""Fixed reference job: a fresh interpreter doing pure-Python group and
number-theory work of the same kind as the jobs.

It imports nothing from quillen_strata, so its work is the same on every
commit, and its wall time tracks only how fast the machine is at the moment.
"""

import oracle

for spec in ("alt:5", "product:sym:3xsym:3", "sym:4", "dihedral:12",
             "elem-abelian:2^4"):
    oracle.Group(spec)
oracle.primes_upto(6000)
