"""One benchmark process. ``run.py`` starts it; it is not meant to be run by hand.

Modes:
  setup --workload W --seed N
      import flowgames and build the workload's inputs, then exit
  run --workload W --seed N --passes P --out DIR [--trace]
      set up, run P whole passes of the ops, check every output and print
      one JSON line; with --trace, spans cover the set-up and the passes
  cli-op --summary PATH -- ARGS
      a traced `flowgames ARGS` process for the cli workload
  record --workload W --out DIR
      run one pass and rewrite the workload's entry in expected.json
  ladder-cell --actions A --states S --resolution R
      one traced design op on random_congestion_game(0, A, S)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_flowgames():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flowgames

    if not Path(flowgames.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"flowgames was imported from {flowgames.__file__}, not from {src}")
    return flowgames


def _run_ops(order, sampler):
    """Run the ops in order, sampling host speed between them.

    Returns the attempts and each op's (wall, calibrated) seconds.
    """
    attempts, spans = [], []
    sampler.sample()
    for op in order:
        t0 = perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failing op is a measured outcome, not a crash
            output = exc
        spans.append((t0, perf_counter()))
        sampler.sample()
        attempts.append((op, output))
    return attempts, [sampler.measure(t0, t1) for t0, t1 in spans]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cmd_setup(args):
    speed.sample_child_until_exit()
    fg = import_flowgames()
    ctx = workloads.Context(ROOT, ROOT, traced=False)
    workloads.build(args.workload, fg, ctx, args.seed)


def cmd_run(args):
    fg = import_flowgames()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    sampler = speed.Sampler()
    # in-process ops are sampled from a timer, cli ops by their own processes;
    # traced runs sample only between ops, so that no sample lands in a span
    sample_in_ops = not args.trace and args.workload != "cli"
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        ctx = workloads.Context(ROOT, Path(scratch), traced=args.trace, sampler=sampler)
        ops = workloads.build(args.workload, fg, ctx, args.seed)
        if sample_in_ops:
            sampler.start_timer()
        attempts, times = _run_ops(workloads.pass_order(ops, args.seed, args.passes), sampler)
        sampler.stop_timer()
        if tracer is not None:
            tracer.active = False
        peak = _peak_rss_mb(children=args.workload == "cli")
        expected = workloads.load_expected()[args.workload]
        verdicts = workloads.check_all(args.workload, fg, ctx, attempts, expected["ops"])
        layers = None
        if tracer is not None:
            from tracer import merge

            tag = f"{args.workload}-seed{args.seed}"
            if args.workload == "cli":
                layers = merge(json.loads(p.read_text()) for p in ctx.cli_summaries)
                spans = out / f"spans-{tag}"
                spans.mkdir(exist_ok=True)
                for p in ctx.cli_summaries:
                    p.with_suffix(".npz").replace(spans / f"{p.stem}.npz")
            else:
                layers = tracer.summary()
                tracer.save(out / f"spans-{tag}.npz")
    known = expected.get("known_failures", {})
    records = [
        {
            "op": op.id,
            "wall_s": wall,
            "cal_s": cal,
            "failure": None if verdict is None else {"kind": verdict[0], "detail": verdict[1]},
            "known": verdict is not None and known.get(op.id) == verdict[0],
        }
        for (op, _output), (wall, cal), verdict in zip(attempts, times, verdicts)
    ]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": args.passes,
                "traced": args.trace,
                "peak_rss_mb": peak,
                "ops": records,
                "layers": layers,
            }
        )
    )


def cmd_cli_op(args):
    import_flowgames()
    from tracer import Tracer

    from flowgames import cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        rc = cli.main(args.argv)
    finally:
        tracer.active = False
        summary = Path(args.summary)
        summary.write_text(json.dumps(tracer.summary()))
        tracer.save(summary.with_suffix(".npz"))
    sys.exit(rc)


def _readme_outputs() -> dict:
    """argv tuple -> stdout for each `$ flowgames ...` block in README.md."""
    readme = ROOT / "README.md"
    if not readme.exists():
        return {}
    pinned = {}
    for block in readme.read_text().split("```")[1::2]:
        lines = block.strip("\n").split("\n")
        if lines and lines[0].startswith("$ flowgames "):
            pinned[tuple(lines[0].split()[2:])] = "\n".join(lines[1:]) + "\n"
    return pinned


def cmd_record(args):
    fg = import_flowgames()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        ctx = workloads.Context(ROOT, Path(scratch), traced=False)
        ops = workloads.build(args.workload, fg, ctx, 0, every_random=True)
        attempts, _times = _run_ops(ops, ctx.sampler)
        observed = {
            op.id: op.observe(output)
            for op, output in attempts
            if not isinstance(output, BaseException) and op.observe(output) is not None
        }
        verdicts = workloads.check_all(args.workload, fg, ctx, attempts, observed)
    if args.workload == "cli":
        invocations = workloads.cli_invocations(0, every_random=True)
        for argv, stdout in _readme_outputs().items():
            for op_id, op_argv in invocations.items():
                if tuple(op_argv) == argv:
                    same = "matches" if observed.get(op_id) == stdout else "DIFFERS FROM"
                    print(f"cli: {op_id} output {same} the README's", file=sys.stderr)
    known = {op.id: verdict[0] for (op, _), verdict in zip(attempts, verdicts) if verdict is not None}
    expected = workloads.load_expected() if workloads.EXPECTED.exists() else {}
    expected[args.workload] = {"ops": observed, "known_failures": known}
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    for op_id, kind in sorted(known.items()):
        print(f"{args.workload}: {op_id} fails ({kind})", file=sys.stderr)


def cmd_ladder_cell(args):
    # a cell that outgrows 2 GiB fails with MemoryError instead of swapping
    # the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    fg = import_flowgames()
    from tracer import Tracer

    from flowgames.generators import random_congestion_game

    tracer = Tracer()
    tracer.install()
    game = random_congestion_game(0, n_actions=args.actions, n_states=args.states)
    op = workloads.design_op(fg, game, args.resolution, "ladder")
    tracer.active = True
    t0 = perf_counter()
    try:
        _game, _grid, solution = op.run()
        status = solution.status
    except (RuntimeError, ValueError, MemoryError) as exc:
        status = f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    tracer.active = False
    print(json.dumps({"status": status, "wall_s": wall, "layers": tracer.summary()}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli-op")
    p.add_argument("--summary", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("record")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("ladder-cell")
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli-op" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {
        "setup": cmd_setup,
        "run": cmd_run,
        "cli-op": cmd_cli_op,
        "record": cmd_record,
        "ladder-cell": cmd_ladder_cell,
    }[args.mode](args)


if __name__ == "__main__":
    main()
