"""Host-speed probe: takes the shared host's drift out of the timed metrics.

The benchmark runs on a virtual machine whose host is shared.  The host's
throughput drifts by up to 1.7x over spells of seconds to minutes, and it
slows a pure-Python loop, a fresh interpreter and the program alike.  Wall
times taken minutes apart therefore disagree by more than any regression
bound, whatever the run takes for its estimate.

The probe is a fixed piece of work that the program under test does not
touch: a fresh interpreter importing networkx, a third-party package the
environment provides.  It is timed every PROBE_EVERY_S seconds between
verdicts, and each verdict time is scaled by PROBE_NOMINAL_S over the mean
of the probes nearest to it in time.  The host stalls a process in steps of
about 50 ms, so single probes read 0.215, 0.265 or 0.315 s; the mean of a
few is a finer reading than their median.  The result is the verdict time on a
host where the probe takes PROBE_NOMINAL_S: a change in the program moves
it, a slow spell of the host does not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

PROBE = [sys.executable, "-c", "import networkx"]
# About the probe's median on the 2-vCPU machine the benchmark was defined on.
PROBE_NOMINAL_S = 0.25
PROBE_EVERY_S = 1.0
# Probes that make up the local speed around one verdict.
NEAREST = 5


def probe(env: Optional[Dict[str, str]] = None) -> float:
    """Wall seconds of one probe process."""
    start = time.perf_counter()
    subprocess.run(PROBE, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - start


def scale(at: float, probes: Sequence[Sequence[float]]) -> float:
    """Factor that turns a time taken at ``at`` into nominal-host seconds.

    ``probes`` holds ``(at, seconds)`` pairs on the same clock.
    """
    nearest = sorted(probes, key=lambda p: abs(p[0] - at))[:NEAREST]
    return PROBE_NOMINAL_S / statistics.mean(s for _, s in nearest)


def normalised(rows: List[dict], probes: Sequence[Sequence[float]]) -> List[float]:
    """Each row's verdict seconds in nominal-host seconds."""
    return [row["seconds"] * scale(row["at"], probes) for row in rows]
