"""Three sha256 digests over what the solvers return: one over the factors,
one over the search effort and one over the structural factors. Equal
digests before and after a change to a solver mean it kept every factor
(or every effort count) byte for byte.

The factor digest covers ``exact_min_factor``, ``greedy_layered_factor``
and ``cube_independent_set``; the stats digest covers the exact and greedy
``stats``. The graphs are the gamma and omega members of orders 0..max-n,
then the induced subgraphs that perfbench's
``ExactIrregular(seed, size).setup()`` builds for each seed given, in that
order. The structural digest covers ``structural_factor`` on the members
of orders 0..max-n, gamma then omega. perfbench is imported, never
changed. Stdlib only.

Usage: python3 tools/factor_digest.py [--seeds 1 2] [--max-n 16] [--size full]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cubefactor.factors import (  # noqa: E402
    cube_independent_set,
    exact_min_factor,
    greedy_layered_factor,
    structural_factor,
)
from cubefactor.graphs import build_graph  # noqa: E402
from workloads import ExactIrregular  # noqa: E402


def graphs(seeds: list[int], max_n: int, size: str):
    """The members, then each seed's exact-irregular subgraphs."""
    for family in ("gamma", "omega"):
        for n in range(max_n + 1):
            yield build_graph(family, n, max_n=max_n)
    for seed in seeds:
        workload = ExactIrregular(seed, size)
        workload.setup()
        for batch in workload.batches:
            yield from batch


def digests(seeds: list[int], max_n: int, size: str) -> tuple[str, str, int]:
    """The factor digest, the stats digest and the number of graphs read."""
    factors, effort = hashlib.sha256(), hashlib.sha256()
    count = 0
    for g in graphs(seeds, max_n, size):
        exact_stats: dict[str, int] = {}
        greedy_stats: dict[str, int] = {}
        exact = exact_min_factor(g, stats=exact_stats)
        greedy = greedy_layered_factor(g, stats=greedy_stats)
        witness = cube_independent_set(g)
        factors.update(repr((exact, greedy, witness)).encode() + b"\n")
        effort.update(repr((sorted(exact_stats.items()), sorted(greedy_stats.items()))).encode() + b"\n")
        count += 1
    return factors.hexdigest(), effort.hexdigest(), count


def structural_digest(max_n: int) -> str:
    """The digest of the structural factors of the members 0..max_n."""
    digest = hashlib.sha256()
    for family in ("gamma", "omega"):
        for n in range(max_n + 1):
            factor = structural_factor(family, n, build_graph(family, n, max_n=max_n))
            digest.update(repr(factor).encode() + b"\n")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--max-n", type=int, default=16, help="members of orders 0..MAX_N")
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="perfbench's input size")
    args = parser.parse_args(argv)
    factor_digest, stats_digest, count = digests(args.seeds, args.max_n, args.size)
    print(f"factors {factor_digest}")
    print(f"stats   {stats_digest}")
    print(f"structural {structural_digest(args.max_n)}")
    print(f"graphs  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
