"""The repository benchmark: host cost, set-up and memory of the simulator
on three shuffle workloads, plus a per-layer profile.  Run it with
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/NOTES.md`` for the design."""
