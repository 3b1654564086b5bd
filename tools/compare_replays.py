#!/usr/bin/env python3
"""Compare every registered scenario's replay output between two builds.

    python3 tools/compare_replays.py OLD_BUILD NEW_BUILD

Each BUILD is a build directory holding `trial_replay`. The scenario names
come from `OLD_BUILD/trial_replay --list`. For every scenario, trials 0
and 1 at seed 7 are replayed with `--json` and with `--trace` in both
builds, and each pair of outputs is compared byte for byte. The script
prints the outputs that differ and their count.

Exit status: 0 when every pair is equal; 1 on any difference, on a
failed replay, or on an observability-off build (its `trial_replay`
records nothing and exits 2). The outputs are kept in a temporary
directory, named on stdout, when a pair differs or a replay fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

SEED = 7
TRIALS = (0, 1)
MODES = ("--json", "--trace")


def scenario_names(replay):
    out = subprocess.run([replay, "--list"], check=True, capture_output=True,
                         text=True).stdout
    return [line.strip() for line in out.splitlines() if line.strip()]


def replay_to(replay, scenario, trial, mode, path):
    """Runs one replay into `path`; returns (returncode, stderr)."""
    with open(path, "wb") as out:
        proc = subprocess.run(
            [replay, scenario, "--trial", str(trial), "--seed", str(SEED),
             mode], stdout=out, stderr=subprocess.PIPE)
    return proc.returncode, proc.stderr.decode(errors="replace").strip()


def main():
    parser = argparse.ArgumentParser(
        description="cmp every scenario's trial_replay --json/--trace "
        "output (trials 0-1, seed 7) between two builds")
    parser.add_argument("old_build")
    parser.add_argument("new_build")
    args = parser.parse_args()

    builds = {}
    for side, build in (("old", args.old_build), ("new", args.new_build)):
        replay = os.path.join(build, "trial_replay")
        if not os.access(replay, os.X_OK):
            sys.exit(f"compare_replays: no trial_replay in {build}")
        builds[side] = replay

    names = scenario_names(builds["old"])
    if not names:
        sys.exit("compare_replays: trial_replay --list printed no scenario")
    # One replay per build first: an observability-off trial_replay
    # refuses every replay, and says why.
    for side, replay in builds.items():
        rc, err = replay_to(replay, names[0], 0, "--json", os.devnull)
        if rc != 0:
            print(f"{side}: {names[0]} --trial 0 --json exited {rc}: {err}")
            return 1
    cases = [(s, t, m) for s in names for t in TRIALS for m in MODES]
    work = tempfile.mkdtemp(prefix="compare_replays.")

    def case_file(side, case):
        scenario, trial, mode = case
        stem = scenario.replace("/", "_")
        return os.path.join(work, side, f"{stem}_trial{trial}{mode[1:]}")

    jobs = [(side, case) for case in cases for side in builds]
    for side in builds:
        os.makedirs(os.path.join(work, side))

    def run(job):
        side, case = job
        return replay_to(builds[side], *case, case_file(side, case))

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        results = dict(zip(jobs, pool.map(run, jobs)))

    failed = [(job, rc, err) for job, (rc, err) in results.items() if rc != 0]
    for (side, (scenario, trial, mode)), rc, err in failed:
        print(f"{side}: {scenario} --trial {trial} {mode} exited {rc}: {err}")
    if failed:
        print(f"outputs kept in {work}")
        return 1

    differ = []
    for case in cases:
        with open(case_file("old", case), "rb") as a, \
                open(case_file("new", case), "rb") as b:
            if a.read() != b.read():
                differ.append(case)
    for scenario, trial, mode in differ:
        print(f"differ: {scenario} --trial {trial} --seed {SEED} {mode}")
    print(f"{len(cases) - len(differ)} of {len(cases)} outputs equal "
          f"({len(names)} scenarios), {len(differ)} differ")
    if differ:
        print(f"outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
