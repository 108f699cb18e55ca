"""What runs: the ``src/`` functions no surface of the system enters.

Usage::

    python scripts/reach.py [--out TABLE]

Runs a fixed list of surfaces (CI's CLI steps, the ``codecs``, ``list``
and ``compare`` commands, a FedProx, an ASO-Fed, a float32 and a 22-round
TiFL run, the five examples, the kill-a-worker and kill-and-resume checks
and the perf ledger's ``--smoke``) with a line tracer
installed in every Python process they start: a ``sitecustomize`` module on
``PYTHONPATH`` records each executed line of ``src/repro`` and writes it out
when the process exits, forked children and ``os._exit`` included. Then it
runs the tier-1 suite under the tracer too and prints every ``src/``
function none of the surfaces entered, marked "tests only" (the suite
enters it) or "nothing". The table gates nothing; it says which code is the
system and which only its tests reach.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Imported by every traced interpreter at start-up. Tracing is per thread,
#: so it is installed for threads started later too; a forked child keeps
#: its parent's tracer but starts an empty record of its own.
SITECUSTOMIZE = '''\
import os, sys, threading

_OUT, _SRC = os.environ["REACH_OUT"], os.environ["REACH_SRC"]
_lines = set()


def _line(frame, event, arg, add=_lines.add):
    if event == "line":
        add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg, src=_SRC, line=_line):
    name = frame.f_code.co_filename
    # At interpreter shutdown a frame's filename can be None.
    return line if name and name.startswith(src) else None


def _dump(lines=_lines, out=_OUT, getpid=os.getpid):
    if lines:
        with open(os.path.join(out, f"{getpid()}.lines"), "a") as f:
            f.writelines(f"{name}\\t{n}\\n" for name, n in lines)
        lines.clear()


def _exit(code, dump=_dump, exit=os._exit):
    dump()
    exit(code)


def _in_child():
    _lines.clear()
    sys.settrace(_call)


os._exit = _exit
os.register_at_fork(after_in_child=_in_child)
__import__("atexit").register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''

_SWEEP = (
    "-m repro sweep --methods fedat,tifl,fedavg --seeds 1 --smoke --out-dir sweep_smoke"
    " --scenarios static,churn,arrival:0.4,bwdrift:2.0,churn:0.2+bwdrift:2,"
    "trace:{repo}/tests/fixtures/traces/diurnal_tiny.csv"
)
_CHAOS = "{repo}/scripts/chaos_dist_check.py --scale tiny --seed 1"

#: The surfaces, each the arguments of one ``python`` run from a scratch
#: directory (``{repo}`` is the checkout): CI's CLI steps, the other CLI
#: commands, FedProx and ASO-Fed (which no sweep or example runs), a float32
#: model, TiFL past its first tier-accuracy refresh (round 20), the
#: examples, the kill-a-worker check, the cheapest kill-and-resume check
#: (a checkpoint saved mid-run and restored) and the ledger smoke.
SURFACES = [
    _SWEEP,
    _SWEEP + " --executor dist --num-workers 2",
    "-m repro sweep --methods fedat --scenarios static,churn:0.2+arrival:0.1+bwdrift:2"
    " --seeds 1 --populations 50000 --smoke --out-dir sweep_smoke_pop",
    "-m repro run --method fedat --dataset sentiment140 --scale tiny --population 300000"
    " --scenario churn:0.2+arrival:0.1+bwdrift:2 --eval-clients 200 --rounds 4",
    "-m repro codecs --size 2000",
    "-m repro list",
    "-m repro compare --dataset sentiment140 --scale tiny --methods fedat,fedavg",
    *(
        f"-m repro run --method {method} --dataset sentiment140 --scale tiny --rounds 10"
        for method in ("fedprox", "asofed")
    ),
    "-m repro run --method fedat --dataset sentiment140 --scale tiny --rounds 10 --dtype float32",
    "-m repro run --method tifl --dataset sentiment140 --scale tiny --rounds 22 --max-time 100000",
    "-m repro figures --from-checkpoint sweep_smoke --out-dir figures",
    *(f"{{repo}}/examples/{path.name}" for path in sorted((REPO / "examples").glob("*.py"))),
    _CHAOS + " --method fedat --dataset sentiment140 --rounds 8",
    _CHAOS + " --method fedasync --dataset reddit --rounds 30",
    "{repo}/scripts/chaos_resume_check.py --method fedat --dataset sentiment140 --scale bench"
    " --seed 1",
    "{repo}/benchmarks/ledger/run.py --smoke",
]


def trace(commands, cwd: Path | None = None, check: bool = True) -> set[tuple[str, int]]:
    """``(file, line)`` of every ``src/repro`` line the commands executed,
    in any process they started. A command is ``python``'s arguments, one
    string split on spaces; with ``check``, one that fails raises
    ``CalledProcessError``."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        (tmp / "site").mkdir()
        (tmp / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        (tmp / "lines").mkdir()
        (tmp / "work").mkdir()
        env = dict(os.environ, REACH_OUT=str(tmp / "lines"), REACH_SRC=str(SRC / "repro"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tmp / "site"), str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        for command in commands:
            argv = [arg.format(repo=REPO) for arg in command.split()]
            print("reach:", *argv, file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, *argv],
                cwd=cwd or tmp / "work",
                env=env,
                check=check,
                stdout=subprocess.DEVNULL,
            )
        executed = set()
        for path in (tmp / "lines").iterdir():
            for row in path.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                executed.add((name, int(line)))
        return executed


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions() -> dict[str, tuple[str, int, set[int]]]:
    """Every function in ``src/repro``: ``"path:Qual.name"`` -> (file, def
    line, the lines of its own body, nested functions' bodies excluded)."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, _DEFS):
                own = set(range(child.body[0].lineno, child.end_lineno + 1))
                for inner in ast.walk(child):
                    if inner is not child and isinstance(inner, _DEFS):
                        own -= set(range(inner.body[0].lineno, inner.end_lineno + 1))
                rel = path.relative_to(SRC / "repro")
                found[f"{rel}:{prefix}{child.name}"] = (str(path), child.lineno, own)
                visit(child, path, f"{prefix}{child.name}.<locals>.")

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def entered(executed: set[tuple[str, int]]) -> set[str]:
    """The functions at least one executed line falls in."""
    return {
        name
        for name, (path, _, own) in functions().items()
        if any((path, line) in executed for line in own)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the table here too")
    args = parser.parse_args(argv)
    reached = entered(trace(SURFACES))
    missed = {n: f for n, f in functions().items() if n not in reached}
    # Under the tracer a timing assertion may fail; what the suite entered
    # is recorded either way.
    tested = entered(trace(["-m pytest -q -p no:cacheprovider"], cwd=REPO, check=False))
    rows = [
        f"{name}\t{line}\t{len(own)}\t{'tests only' if name in tested else 'nothing'}"
        for name, (_, line, own) in sorted(missed.items())
    ]
    only = sum(1 for n in missed if n in tested)
    summary = (
        f"{len(missed)} of {len(reached) + len(missed)} functions no surface enters:"
        f" {only} tests only, {len(missed) - only} nothing"
    )
    table = "\n".join(["function\tdef line\tbody lines\treached by", *rows, summary]) + "\n"
    print(table, end="")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
