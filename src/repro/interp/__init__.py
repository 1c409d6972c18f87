"""ICFG interpreter — the reproduction's execution substrate.

The paper collects dynamic branch counts by profiling compiled SPEC95
binaries; we collect the same events by directly executing the ICFG.
The interpreter honours return maps, so programs restructured by exit
splitting run unchanged: a procedure returns to whichever call-site exit
its caller registered for the exit node that was reached.
"""

from repro.interp.machine import (DecodedICFG, ExecutionResult, Machine,
                                  run_icfg)
from repro.interp.profile import Profile
from repro.interp.workload import Workload

__all__ = ["DecodedICFG", "ExecutionResult", "Machine", "Profile", "Workload",
           "run_icfg"]
