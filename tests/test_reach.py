"""Every function, method, class body and lambda in src/qbattery runs for a
command or a benchmark call: no package code is there for tests alone.

Run as a script, this file sets a profile hook before it imports
qbattery.cli, so import-time code counts too, and then runs what the
benchmark runs: each perfbench workload's tiny iteration (its commands
through cli.main, then its check) and the layer probes of
perfbench/child.py on the iteration's probe.  It adds the command lines the
workloads leave out: a --config run, an L sweep over couplings, a G
trajectory, a blp trace, the fit filters of every family and a usage error.
It prints the package's code objects that never ran, comprehensions and
module bodies left out.  The test asserts that they are exactly ALLOWED.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (file, qualified name) of each code object that no command or benchmark
# call runs, kept because a library caller can reach it.
ALLOWED = {
    # The global yield of a state that is not an X state.  Every command and
    # benchmark call starts from an X state, whose populations and
    # coherences `damped_work` damps alone, but `ergotropy_after_collisions`
    # and `damped_work` accept any state.
    ("ergotropy.py", "_yield_of.<locals>.<lambda>"),
}


def package_code():
    """{(path, first line, name): (file, qualified name)} of every def,
    class body and lambda under src/qbattery."""
    found = {}

    def walk(code, prefix):
        for inner in code.co_consts:
            if isinstance(inner, types.CodeType):
                name = prefix + inner.co_name
                if inner.co_name == "<lambda>" or not inner.co_name.startswith("<"):
                    found[inner.co_filename, inner.co_firstlineno, inner.co_name] = (Path(path).name, name)
                walk(inner, name + (".<locals>." if inner.co_flags & inspect.CO_NEWLOCALS else "."))

    for path in sorted(map(str, (SRC / "qbattery").glob("*.py"))):
        walk(compile(Path(path).read_text(), path, "exec"), "")
    return found


def run_everything(work: str) -> None:
    """The benchmark's calls and the command lines it leaves out."""
    import qbattery.cli as cli
    from qbattery.collision import collide_once, collision_propagator, evolve
    from qbattery.ergotropy import global_ergotropy, local_ergotropy
    from qbattery.fitting import fit_curve
    from qbattery.model import battery_hamiltonian
    from test_perfbench_names import _perfbench

    workloads = _perfbench("workloads")
    for name in workloads.WORKLOADS:
        it = workloads.iteration(name, 1, 0, os.path.join(work, name), True)
        assert [cli.main(argv) for argv in it.commands] == [0] * len(it.commands), name
        it.check()
        rho, p = it.probe
        collide_once(rho, p)
        collision_propagator.__wrapped__(p)
        evolve(rho, 30, p)
        global_ergotropy(rho, battery_hamiltonian(p))
        local_ergotropy(rho, p)
        if it.fit_sample:
            model, data, bootstrap = it.fit_sample
            fit_curve(model, data, bootstrap=bootstrap)

    out = Path(work)
    (out / "run.ini").write_text("[model]\nbeta = 0.5\n[sweep]\nentanglements = 0:1:0.1\ncollisions = 0,2\n")
    sweep = str(out / "config.csv")
    commands = [
        ["sweep", "--config", str(out / "run.ini"), "--seed", "1", "--output", sweep],
        ["sweep", "--seed", "1", "--quantity", "L", "--entanglements", "0.3", "--collisions", "0,2",
         "--couplings", "0.5,1", "--output", str(out / "l.csv")],
        ["trajectory", "--seed", "1", "--quantity", "G", "--delta-ts", "0.5", "--collisions", "1",
         "--substeps", "2", "--output", str(out / "g.csv")],
        ["blp", "--seed", "1", "--delta-ts", "1.6", "--collisions", "2", "--grid-points", "20", "--starts", "1",
         "--max-evals", "30", "--output", str(out / "b.csv"), "--trace-output", str(out / "d.csv")],
    ]
    commands += [["fit", "--model", model, "--input", sweep, "--n", "2", "--quantity", "G_p",
                  "--output", str(out / f"{model}.json")] for model in ("M1", "M2", "M3", "M4")]
    assert [cli.main(argv) for argv in commands] == [0] * len(commands)
    try:
        cli.main(["sweep", "--no-such-flag"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("a usage error did not exit")


def main(work: str) -> None:
    reached = set()
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code))
    sys.path.insert(0, str(SRC))
    run_everything(work)
    sys.setprofile(None)
    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in reached}
    print(json.dumps(sorted(named for key, named in package_code().items() if key not in ran)))


def test_only_allowed_code_is_unreached(tmp_path):
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    unreached = {tuple(named) for named in json.loads(child.stdout.splitlines()[-1])}
    assert unreached == ALLOWED


if __name__ == "__main__":
    main(sys.argv[1])
