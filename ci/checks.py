"""The steps of the CI workflow, .github/workflows/tests.yml, one function each.

`python ci/checks.py NAME` runs one step: numpy-only, tier1, seeds, bench, readme, console,
exit64, no-warning, blas, mem-trace, mem-dense, mem-frames or smoke, named after what the
workflow's step checks.  `python ci/checks.py all` runs them all in that order, each in a fresh
child process, prints PASS NAME or FAIL NAME after each, and exits 1 if any failed.
"""

# only the standard library here, since numpy-only runs before pytest is installed
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI = ("-c", "from planesing.cli import entry; entry()")


def poly(nvars, *terms):
    """A polynomial spec in nvars variables with the terms (c, exponents)."""
    return {"vars": nvars, "terms": [{"c": c, "e": e} for c, e in terms]}


def law(f1, phi, f2=()):
    """A conservation-law problem spec from the term lists of f1, phi and f2."""
    return {"f1": poly(1, *f1), "f2": poly(1, *f2), "phi": poly(2, *phi)}


# Burgers flux and a lips profile plus 1e300 u2^8: the frame curves at
# t = 1.1 reach |u2| = 20, where the critical values overflow
FRAMES = law([(0.5, [2])], [(-1.0, [1, 0]), (1.0, [3, 0]), (1e-6, [1, 2]), (1e300, [0, 8])])


def launch(*argv, cwd=ROOT, stdout=None, stderr=None, **env):
    """Start this Python on argv with src on PYTHONPATH and one BLAS and
    OpenMP thread; env sets more variables, and a None value unsets one."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **env,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen([sys.executable, *argv], cwd=cwd, stdout=stdout, stderr=stderr,
                            text=True, env={k: v for k, v in env.items() if v is not None})


def python(*argv, capture=False, **kw):
    """Run launch(*argv, **kw) to its end, its output captured if capture."""
    pipe = subprocess.PIPE if capture else None
    with launch(*argv, stdout=pipe, stderr=pipe, **kw) as child:
        out, err = child.communicate()
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


def planesing(*args, capture=True, **kw):
    """Run the command line planesing ARGS from src, as every step but console does."""
    return python(*CLI, *args, capture=capture, **kw)


def write(tmp, name, content):
    """The file tmp/name holding content, bytes as given or else JSON; its path."""
    path = Path(tmp, name)
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return str(path)


def numpy_only(tmp):
    return planesing("classify", "--builtin", "swallowtail", "--out", f"{tmp}/numpy-only",
                     capture=False).returncode == 0


def tier1(tmp):
    # -X dev shows the ResourceWarning of a file left open; the -W flags turn it, an exception
    # raised in a finalizer and any NumPy RuntimeWarning (overflow, invalid value) into failures
    return python("-X", "dev", "-m", "pytest", "-q", "-W", "error::ResourceWarning",
                  "-W", "error::pytest.PytestUnraisableExceptionWarning",
                  "-W", "error::RuntimeWarning", "--continue-on-collection-errors").returncode == 0


def seeds(tmp):
    """Acceptance 3 and 5, and all of tests/test_conslaw.py, whose frames test is the one that
    depends on the seed, under PLANESING_SEED 0-7."""
    failed = 0
    for seed in range(8):
        print(f"PLANESING_SEED={seed}")
        failed += python("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_conslaw.py",
                         "tests/test_acceptance.py::test_acceptance_3_coordinate_invariance",
                         "tests/test_acceptance.py::test_acceptance_5_xi_oracle_equivalence",
                         PLANESING_SEED=str(seed)).returncode
    return not failed


def bench(tmp):
    return python("-m", "pytest", "bench").returncode == 0


def readme(tmp):
    text = Path(ROOT, "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```([^\n]*)\n(.*?)^```", text, re.M | re.S)
    failed = 0
    # every python block on its own, in a fresh interpreter
    for k, (lang, body) in enumerate(blocks):
        if lang == "python":
            run = python("-c", body, cwd=tmp, capture=True)
            print(f"python block {k}: exit {run.returncode}")
            failed += run.returncode != 0
            sys.stdout.write(run.stderr)
    # every command of the command-line block, against the line printed under it
    commands = next(body.splitlines() for _, body in blocks if body.startswith("planesing "))
    for cmd, want in zip(commands, commands[1:]):
        if cmd.startswith("planesing "):
            got = planesing(*shlex.split(cmd)[1:], cwd=tempfile.mkdtemp(dir=tmp)).stdout.strip()
            print(f"{cmd}: {'ok' if got == want else f'got {got!r}, documented {want!r}'}")
            failed += got != want
    return not failed


def console(tmp):
    run = subprocess.run(["planesing", "classify", "--builtin", "cusp", "--out", tmp],
                         capture_output=True, text=True)
    print(f"classify --builtin cusp: exit {run.returncode}, {run.stdout.strip()!r}")
    return run.returncode == 0 and run.stdout == "class=Cusp at (0, 0)\n"


def exit64(tmp):
    from planesing.conslaw import MAX_FRAMES
    run = planesing("classify", "--builtin", "cusp", "--out", tmp)
    print(f"classify --builtin cusp: exit {run.returncode}, {run.stdout.strip()!r}")
    failed = run.returncode != 0 or run.stdout != "class=Cusp at (0, 0)\n"
    one_var = {"components": [poly(1, (1.0, [1])), poly(2, (1.0, [0, 2]))]}
    for args in (
        ["classify", "--builtin", "ruling", "--curve", "t,t^3", "--at", "1e200"],
        ["trace", "--builtin", "ruling", "--curve", "t,t^3", "--at", "1e200"],
        ["conslaw", write(tmp, "P.json", law([(1.0, [6])], [(1e300, [1, 0])])), "--at", "1,0"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "0,0", "--time", "1e308"],
        ["conslaw", "--builtin", "burgers-lips", "--at", "1e200,0"],
        ["classify", "--map", f"{'(' * 400}u{')' * 400}, v"],
        ["classify", "--builtin", "cusp", "--tol-zero", "0"],
        ["classify", "--builtin", "cusp", "--tol-zero", "nan"],
        ["classify", write(tmp, "one_var.json", one_var)],
        ["trace", write(tmp, "one_var.json", one_var)],
        ["conslaw", write(tmp, "list.json", b"[1]")],
        ["classify", tmp],
        ["classify", write(tmp, "latin1.json", b"\xff\xfe{}")],
        # a bool, a string or a fractional count is no input number
        ["classify", write(tmp, "vars_fractional.json", {"components": [
            poly(2.7, (1.0, [1, 0])), poly(2, (1.0, [0, 3]), (1.0, [1, 1]))]})],
        ["classify", write(tmp, "coefficient_string.json", {"components": [
            poly(2, ("1e5", [1, 0])), poly(2, (1.0, [0, 3]), (1.0, [1, 1]))]})],
        ["conslaw", write(tmp, "exponent_bool.json", law([(0.5, [True])], [(1.0, [1, 0])]))],
        # one frame time over the cap
        ["conslaw", "--builtin", "burgers-lips", "--time", ",".join(["0.9"] * (MAX_FRAMES + 1))],
        # finite input whose derived quantities overflow: the line says which
        (["classify", "--map", "(1e200*u, 1e200*(v^3+u*v))"], "the discriminant jet overflows at"),
        (["trace", "--map", "(1e300*u, v^3+u*v)", "--grid", "8,8"],
         "eta lambda overflows on the box"),
        (["classify", "--map", "(4e307*u^3, v)"], "the Hessian of lambda overflows at"),
        (["trace", "--map", "(1e306*u^5+v^2, u)", "--box=-4,-4,4,4", "--grid", "8,8", "--format",
          "csv"], "the critical value image overflows on the traced singular set"),
        (["conslaw", write(tmp, "frames.json", FRAMES), "--box=-20,-20,20,20", "--grid", "16,16",
          "--time", "0.9,1.1", "--format", "csv"],
         "the critical value image overflows on the traced singular set"),
        # finite coefficients whose flux derivative 2e308 y or velocity 3e400 u1^2 overflows
        (["conslaw", write(tmp, "flux.json", law([(1e308, [2])], [(1.0, [1, 0])]))],
         "the flux derivative overflows in its coefficients"),
        (["conslaw", write(tmp, "velocity.json", law([(1.0, [3])], [(1e200, [1, 0])]))],
         "the characteristic velocity overflows in its coefficients"),
        (["classify", "--builtin", "ruling", "--curve", "1e308*t^2+t,t^3"],
         "the curve velocity overflows in its coefficients"),
    ):
        args, says = args if isinstance(args, tuple) else (args, "planesing:")
        run = planesing(*args, "--out", f"{tmp}/bad")
        lines = run.stderr.splitlines()
        ok = run.returncode == 64 and len(lines) == 1 and lines[0].startswith("planesing:")
        ok &= says in lines[0] and "Traceback" not in run.stderr and "Warning" not in run.stderr
        print(f"{' '.join(args)[:60]}: exit {run.returncode}, stderr {lines[-1:]}")
        failed += not ok
    return not failed


def no_warning(tmp):
    failed = 0
    for args, want in (
        (["trace", "--map", "(u, v^2)", "--box=1e308,-1,1.7e308,1", "--grid", "4,4"],
         "curves=1 special_points=0"),
        (["trace", "--map", "(u, 1e300*v^2)", "--grid", "8,8"], "curves=1 special_points=0"),
        # P overflows at a traced vertex, but json holds no critical value
        (["trace", "--map", "(1e306*u^5+v^2, u)", "--box=-4,-4,4,4", "--grid", "8,8",
          "--format", "json"], "curves=1 special_points=0"),
        # every critical value rounds to x1 = 1e20
        (["trace", "--map", "(1e20+u, v^2)", "--format", "svg"], "curves=1 special_points=0"),
        (["classify", "--map", "(u, 1e8*(v^3+u*v))"], "class=Cusp at (0, 0)"),
        (["classify", "--map", "(1e-9*u, v^3+u*v)"], "class=Cusp at (0, 0)"),
        (["classify", "--map", "(u, 5e-7*v^2+v^3)", "--tol-zero", "1e-8"], "class=Fold at (0, 0)"),
        # phi_u1^2 overflows at u1 = 1e100, but the trace and xi are finite
        (["conslaw", "--builtin", "burgers-lips", "--at", "1e100,0", "--time", "1"],
         "class=Immersion at (1e+100, 0) t=1"),
        # the frame critical values overflow, but only frame csv files hold them
        (["conslaw", write(tmp, "frames.json", FRAMES), "--box=-20,-20,20,20", "--grid", "16,16",
          "--time", "0.9,1.1", "--format", "json"], "class=Lips at (0, 0) t*=1 xi3=1.2e-05"),
    ):
        run = planesing(*args, "--out", f"{tmp}/out", PYTHONWARNINGS="error")
        ok = run.returncode == 0 and run.stdout == want + "\n" and run.stderr == ""
        print(f"{' '.join(args)}: exit {run.returncode}, {run.stdout.strip()!r}, "
              f"stderr {run.stderr.splitlines()[-1:]}")
        failed += not ok
    return not failed


# run under one and two BLAS threads, each writing its own directory
BY_THREADS = [
    "conslaw --builtin burgers-lips --time 0.9,1.1 --grid 256,256 --format json,csv,svg",
    # the lips point comes from grad lambda = 0 alone, the cusp point from the cusp system alone
    *(f"trace --builtin {g} --grid 256,256 --format json,csv,svg"
      for g in ("beaks", "swallowtail", "lips", "cusp")),
    *(f"classify --builtin {g} --format json"
      for g in ("immersion", "fold", "cusp", "lips", "beaks", "swallowtail")),
    "classify --builtin ruling --curve 't,t^3' --format json",
    # away from the origin the recentring shift matrices are not the identity
    "classify --map '(u, v^3+u*v)' --at 0.3,0.1 --format json",
    # a cusp of two dense degree-5 components, all 21 terms each, off the
    # origin: a full table recentred, and the eta^k lambda chain on dense tables
    "classify --format json --at 0.3,-0.2 --map '((u-0.3) + 0.5*(u-0.3)*(v+0.2) - 0.25*(v+0.2)^2"
    " + 0.125*(u-0.3)^3 + 0.3*(v+0.2)^4 + 0.01*(u+v-0.1)^5, (v+0.2)^3 + (u-0.3)*(v+0.2)"
    " + 0.5*(u-0.3)^2 + 0.25*(u-0.3)^3*(v+0.2) - 0.02*(u+v-0.1)^5)'",
]
# recentred tables are summed in one fixed order, so these runs away from the origin do not
# depend on the OpenBLAS kernel either; the dense-map classify and the conslaw run are left
# out, since np.convolve still sums in the kernel's order
BY_KERNEL = [
    "classify --builtin ruling --curve 't,t^3+0.5*t^2' --at -0.16666666666666666 --format json",
    "classify --map '(u, v^3+u*v)' --at 0.3,0.1 --format json",
    "trace --map '((u-0.37109375)*(v+0.078125)+(v+0.078125)^4, u-0.37109375)'"
    " --at 0.37109375,-0.078125 --box=-0.62890625,-1.078125,1.37109375,0.921875 --grid 12,12"
    " --format json,csv,svg",
]


def blas(tmp):
    def runs(top, commands, **env):
        return all([planesing(*shlex.split(c), "--out", f"{top}/{k}", capture=False, **env)
                    .returncode == 0 for k, c in enumerate(commands)])

    def same_files(a, b):
        a, b = ({p.relative_to(top): p.read_bytes() for p in Path(top).rglob("*") if p.is_file()}
                for top in (a, b))
        differ = sorted(str(name) for name in a.keys() | b.keys() if a.get(name) != b.get(name))
        print("".join(f"{name} differs\n" for name in differ), end="")
        return not differ

    ok = runs(f"{tmp}/threads-1", BY_THREADS)
    ok &= runs(f"{tmp}/threads-2", BY_THREADS, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    ok &= same_files(f"{tmp}/threads-1", f"{tmp}/threads-2")
    ok &= runs(f"{tmp}/core-default", BY_KERNEL, OPENBLAS_CORETYPE=None)
    ok &= runs(f"{tmp}/core-Prescott", BY_KERNEL, OPENBLAS_CORETYPE="Prescott")
    return ok & same_files(f"{tmp}/core-default", f"{tmp}/core-Prescott")


def under_memory_bound(label, bound, args, show_stdout=False):
    """Run planesing ARGS in one child and hold its own peak RSS to bound MB."""
    t0 = time.perf_counter()
    with launch(*CLI, *args, stdout=subprocess.PIPE) as child:
        stdout = child.stdout.read()
        # wait4 reads the usage of this child alone; ru_maxrss is in KiB on Linux
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
    wall, peak = time.perf_counter() - t0, usage.ru_maxrss / 1024
    shown = f"{stdout.strip()!r}, " if show_stdout else ""
    print(f"{label}: exit {code}, {shown}{wall:.1f} s, peak RSS {peak:.0f} MB (bound {bound} MB)")
    return code == 0 and peak <= bound


def mem_trace(tmp):
    return under_memory_bound("trace --builtin beaks --grid 512,512", 250, [
        "trace", "--builtin", "beaks", "--grid", "512,512", "--format", "json", "--out", tmp])


def mem_dense(tmp):
    import numpy as np
    # both components hold every term of degree <= 16, the input cap,
    # so the Newton systems stack the widest tables the program builds
    rng = np.random.default_rng(16)
    monomials = [[i, j] for i in range(17) for j in range(17 - i)]
    path = write(tmp, "dense16.json", {"components": [
        poly(2, *((float(rng.uniform(-1.0, 1.0)), e) for e in monomials)) for _ in range(2)]})
    return under_memory_bound("trace of a dense degree-16 map --grid 64,64", 100, [
        "trace", path, "--grid", "64,64", "--format", "json", "--out", tmp])


def mem_frames(tmp):
    import numpy as np
    # the burgers-lips problem plus small terms on every monomial, with
    # deg f1' = deg phi = 8: velocity degree 64, the cap
    rng = np.random.default_rng(64)
    f1 = [(0.5, [2])] + [(float(rng.uniform(-0.05, 0.05)), [k]) for k in range(3, 10)]
    f2 = [(float(rng.uniform(-0.05, 0.05)), [k]) for k in range(2, 10)]
    lips = {(1, 0): -1.0, (3, 0): 1.0, (1, 2): 1.0}
    phi = [(lips.get((i, j), 0.0) + (float(rng.uniform(-0.05, 0.05)) if i + j >= 2 else 0.0),
            [i, j]) for i in range(9) for j in range(9 - i)]
    path = write(tmp, "velocity64.json", law(f1, phi, f2))
    times = np.linspace(0.9, 1.1, 20).tolist()
    return under_memory_bound(
        f"conslaw at velocity degree 64 --grid 512,512, {len(times)} frames", 100,
        ["conslaw", path, "--box=-0.4,-0.4,0.4,0.4", "--grid", "512,512", "--time",
         ",".join(map(repr, times)), "--format", "json,csv", "--out", tmp], show_stdout=True)


def smoke(tmp):
    failed = 0
    for w in ("classify", "trace", "first-shock"):
        run = python("bench/run.py", "--workload", w, "--seed", "1", "--seconds", "1",
                     "--trace", "1", capture=True)
        sys.stderr.write(run.stderr)
        report = json.loads(run.stdout.splitlines()[-1])
        print(w, "correct:", report["correct"], "failed:", report["failed"])
        failed += not (report["correct"] is True and report["failed"] == 0)
    return not failed


STEPS = {f.__name__.replace("_", "-"): f for f in (
    numpy_only, tier1, seeds, bench, readme, console, exit64, no_warning, blas,
    mem_trace, mem_dense, mem_frames, smoke)}


def main(name):
    sys.stdout.reconfigure(line_buffering=True)  # keeps order with the children's output
    if name in STEPS:
        sys.path.insert(0, SRC)
        with tempfile.TemporaryDirectory() as tmp:
            return 0 if STEPS[name](tmp) else 1
    if name != "all":
        sys.exit(f"usage: python ci/checks.py all|{'|'.join(STEPS)}")
    codes = {}
    for step in STEPS:
        codes[step] = subprocess.run([sys.executable, os.path.abspath(__file__), step]).returncode
        print(f"{'FAIL' if codes[step] else 'PASS'} {step}")
    return 1 if any(codes.values()) else 0


if __name__ == "__main__":
    sys.exit(main(" ".join(sys.argv[1:])))
