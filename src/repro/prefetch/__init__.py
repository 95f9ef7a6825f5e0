"""Dedicated instruction prefetchers and the BTB prefetcher (Section V).

:data:`PREFETCHERS` maps each ``SimParams.prefetcher`` name to its
class; the simulator builds the one its parameters name.  The names
``"none"`` (no prefetcher) and ``"perfect"`` (every L1I access hits)
build no prefetcher object.  A new prefetcher is a
:class:`~repro.prefetch.base.Prefetcher` subclass plus an entry here.
"""

from repro.prefetch.base import Prefetcher
from repro.prefetch.djolt import DJoltPrefetcher
from repro.prefetch.eip import EIP27, EIP128, EIPPrefetcher
from repro.prefetch.fnl_mma import FNLMMAPrefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.profile_guided import ProfileGuidedPrefetcher, build_profile
from repro.prefetch.rdip import RDIPPrefetcher
from repro.prefetch.sn4l_dis_btb import SN4LDisBTBPrefetcher, SN4LDisPrefetcher

PREFETCHERS: dict[str, type[Prefetcher]] = {
    "nl1": NextLinePrefetcher,
    "eip128": EIP128,
    "eip27": EIP27,
    "fnl_mma": FNLMMAPrefetcher,
    "djolt": DJoltPrefetcher,
    "rdip": RDIPPrefetcher,
    "sn4l_dis": SN4LDisPrefetcher,
    "sn4l_dis_btb": SN4LDisBTBPrefetcher,
    "profile_guided": ProfileGuidedPrefetcher,
}
"""Dedicated-prefetcher classes by name; each is constructed as
``cls(params, memory, btb, program, stats)``."""


def prefetcher_names() -> list[str]:
    """Every dedicated-prefetcher name, sorted."""
    return sorted(PREFETCHERS)


__all__ = [
    "Prefetcher",
    "NextLinePrefetcher",
    "EIPPrefetcher",
    "EIP128",
    "EIP27",
    "FNLMMAPrefetcher",
    "DJoltPrefetcher",
    "RDIPPrefetcher",
    "SN4LDisPrefetcher",
    "SN4LDisBTBPrefetcher",
    "ProfileGuidedPrefetcher",
    "build_profile",
    "PREFETCHERS",
    "prefetcher_names",
]
