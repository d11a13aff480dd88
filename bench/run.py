"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs for NAME are generated from
the seed in this process; every measured run happens in a fresh
interpreter (``worker.py``) that sees only the generated files and
imports grcvalency from ``src/``.  Each run's outputs are checked, and
the last line printed is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``),
named and with units as in ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
# timed query mixes per process; a run holds several short sessions, and
# each one's set-up is a sample of setup_s
MIXES = 4


class Command:
    """A workload whose operation is one CLI command per fresh process."""

    def __init__(self, argv, items, check, clean):
        self.argv = argv
        self.items = items  # treebank <word> elements per command
        self.check = check
        self.clean = clean


def _extract(seed, work):
    expected = inputs.build_extract(seed, work)
    output = work / "lexicon.tsv"

    def clean():
        for suffix in ("", ".report.tsv", ".manifest.json"):
            output.with_name(output.name + suffix).unlink(missing_ok=True)

    argv = ["extract", str(work / "treebank"), "-o", str(output),
            "--manifest", str(work / "manifest.tsv")]
    return Command(argv, expected["words"],
                   lambda code: checks.check_extract(code, output, expected), clean)


def _casestudy(seed, work):
    expected = inputs.build_casestudy(seed, work)
    return Command(["casestudy", "--config", expected["config"]], expected["words"],
                   lambda code: checks.check_casestudy(code, expected["output"], expected),
                   lambda: shutil.rmtree(expected["output"], ignore_errors=True))


COMMANDS = {"extract-corpus": _extract, "casestudy-epic": _casestudy}


def spawn(spec, work, timeout):
    """Run one worker; its JSON result, or None when it failed to finish."""
    path = work / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        process = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(path)],
                                 cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout} s", file=sys.stderr)
        return None
    if process.returncode != 0:
        print(f"worker exited {process.returncode}: {process.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(process.stdout.strip().splitlines()[-1])


def processes(prepare, seconds, minimum, work):
    """Results of fresh workers, None for one that failed, until ``seconds``
    have passed and ``minimum`` have finished; ``prepare(index)`` clears
    the last outputs and returns the next worker's spec."""
    deadline = monotonic() + seconds
    started = finished = 0
    while finished < minimum or monotonic() < deadline:
        result = spawn(prepare(started), work, timeout=170)
        started += 1
        finished += result is not None
        yield result
        if started > 3 * finished + 3:
            return  # the program cannot run at all


def run_commands(command, seconds, trace, work):
    """One command per process; with tracing, every second one is traced."""
    def prepare(index):
        command.clean()
        return {"mode": "command", "argv": command.argv, "trace": trace and index % 2 == 1,
                "run_id": index, "spans": str(work / f"spans-{index}.tsv")}

    runs, setups, rss = [], [], []
    attempted = failed = 0
    for result in processes(prepare, seconds, 4 if trace else 3, work):
        attempted += 1
        problems = command.check(result["exit"]) if result else ["worker failed"]
        if problems:
            failed += 1
            print(f"command {attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        if result:
            runs += result["runs"]
            setups.append(result["setup_parts"])
            rss.append(result["rss_mb"])
    return runs, setups, rss, attempted, failed, command.items


def run_queries(seed, seconds, trace, work):
    """Query sessions of MIXES timed mixes each, one per process."""
    prepared = inputs.build_queries(seed, work)
    # what each latency is of: a query's kind and arguments
    queries = [json.dumps(op[:2], sort_keys=True)
               for op in json.loads(Path(prepared["mix"]).read_text(encoding="utf-8"))]

    def prepare(index):
        return {"mode": "queries", "lexicon": prepared["lexicon"], "mix": prepared["mix"],
                "mixes": MIXES, "trace": trace, "run_id": index,
                "spans": str(work / f"spans-{index}")}

    runs, setups, rss = [], [], []
    attempted = failed = 0
    for result in processes(prepare, seconds, 2, work):
        if result is None:
            attempted += 1
            failed += 1
            continue
        if result["failed"]:
            print(f"{result['failed']} of {result['attempted']} queries failed", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        for run in result["runs"]:
            run["queries"] = queries
        runs += result["runs"]
        setups.append(result["setup_parts"])
        rss.append(result["rss_mb"])
    return runs, setups, rss, attempted, failed, prepared["ops"]


def _percentile(values, share):
    """Nearest-rank percentile: at p99 of 1000 values, ten lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(runs, setups, rss, items):
    """Each time summed from the fastest of its pieces over the untraced
    runs, and the median memory over the run's processes.

    Every operation in a run repeats the same work, and a shared host slows
    a process by up to 60% while other tenants load the same cores, in
    stretches from a fraction of a second to minutes.  A run's median lands
    in whichever state held most of that run; the fastest piece is the
    program's own time whenever any moment of the run was quiet, and a
    slower program moves it as much as it moves the median.  ``setups``
    holds each process's set-up in pieces, in the same order every time.
    """
    plain = [run for run in runs if not run["traced"]]
    if "latencies_ms" in plain[0]:
        # a query session repeats one mix, and identical queries do the same
        # work: each query's latency is the fastest of every run of it.  A
        # 1 ms query finds a quiet moment far more often than a 0.7 s mix.
        fastest = {}
        for run in plain:
            for query, latency in zip(run["queries"], run["latencies_ms"]):
                fastest[query] = min(latency, fastest.get(query, latency))
        best = [fastest[query] for query in plain[0]["queries"]]
        run_s = sum(best) / 1000.0
        p50 = statistics.median(best)
        tail = _percentile(best, 0.99)
    else:  # every command does the same work in the same stages: run_s
        # sums each stage's fastest time over the run's commands.  Their
        # spread is the host's, so the percentiles are run_s
        fastest = {}
        for run in plain:
            for stage, seconds in run["stages"].items():
                fastest[stage] = min(seconds, fastest.get(stage, seconds))
        run_s = sum(fastest.values())
        p50 = tail = run_s * 1000.0
    return {"run_s": run_s, "items_per_s": items / run_s, "op_p50_ms": p50,
            "op_tail_ms": tail, "setup_s": sum(min(part) for part in zip(*setups)),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(runs, names, keep_spans):
    """Layers of the traced run with the median time, and the tracing cost."""
    traced = sorted((run for run in runs if run["traced"]), key=lambda run: run["run_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = {name: 0 for name in names}
    metrics.update(chosen["layers"])
    metrics["trace.overhead_s"] = (
        statistics.median(run["run_s"] for run in traced)
        - statistics.median(run["run_s"] for run in runs if not run["traced"]))
    keep_spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(chosen["spans"], keep_spans)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*COMMANDS, "lexicon-queries"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grcvalency" / "__init__.py").is_file():
        print(f"error: no grcvalency sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "lexicon-queries":
            measured = run_queries(args.seed, args.seconds, args.trace, work)
        else:
            command = COMMANDS[args.workload](args.seed, work)
            measured = run_commands(command, args.seconds, args.trace, work)
        runs, setups, rss, attempted, failed, items = measured
        if not all(any(run["traced"] == traced for run in runs) for traced in {False, args.trace}):
            print("error: no run finished", file=sys.stderr)
            return 1
        if args.trace:
            keep = WORK / "trace" / f"{args.workload}-seed{args.seed}.spans.tsv"
            values = per_layer(runs, units, keep)
        else:
            values = end_to_end(runs, setups, rss, items)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(runs)} runs "
          f"({sum(run['traced'] for run in runs)} traced), {attempted} operations, "
          f"{failed} failed")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
