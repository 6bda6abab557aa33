"""One measuring process: ``python worker.py WORKLOAD CPU PASSES REVERSE IN.pkl OUT.pkl``.

Pins itself to CPU, imports the engine, makes PASSES passes over the
operations pickled in IN.pkl (the first in reverse order when REVERSE is
1), and pickles every operation's executions and its peak RSS in MB to
OUT.pkl.  ``run.py`` starts one per CPU and waits for each; a worker
whose ``run.py`` dies is sent SIGTERM by the kernel.
"""
import ctypes
import os
import pickle
import resource
import signal
import sys

import run
import workloads

PR_SET_PDEATHSIG = 1


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds subprocess.run, which kills its child
    parent = os.getppid()
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:  # run.py died before the signal was set
        return 143
    workload, cpu, count, reverse, in_path, out_path = sys.argv[1:]
    os.sched_setaffinity(0, {int(cpu)})
    with open(in_path, "rb") as handle:
        items = pickle.load(handle)
    runner = run.Runner(workload, items, workloads.child_env(run.ROOT))
    execs = run.run_passes(runner, int(count), reverse == "1")
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    with open(out_path, "wb") as handle:
        pickle.dump((execs, resource.getrusage(who).ru_maxrss / 1024), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
