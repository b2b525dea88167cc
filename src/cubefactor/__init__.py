"""Optimal cube factors of the gamma (Fibonacci-string) and omega
(matchable Lucas) cube families: exact graph construction, three
independent factor solvers, the cube-factor polynomials by recurrence,
closed form, and generating function, and audits of every identity
against brute-force oracles and OEIS b-files."""

from . import audit, factors, graphs, oeis, polynomials, sequences
from .audit import *  # noqa: F403
from .factors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .oeis import *  # noqa: F403
from .polynomials import *  # noqa: F403
from .sequences import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (sequences, polynomials, graphs, factors, oeis, audit)
    for name in module.__all__
]
