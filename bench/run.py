"""Fit-and-predict benchmark of spatdeform, driven through its command line.

Each workload generates its inputs (bench/inputs.py), then repeats
whole rounds of ``spatdeform estimate``, ``spatdeform predict`` and
``spatdeform predict --draws`` in this process through
``spatdeform.cli.main`` until ``--seconds`` have passed, and checks
every output against the benchmark's own formulas (bench/checks.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

    python3 bench/run.py --workload swirl-k8 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

See bench/README.md.
"""

import os

# one BLAS thread, set before numpy loads: small BLAS calls lose when
# threaded, and on two vCPUs default threads make a K=8 fit 3x slower
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DRAWS = 20


@dataclass(frozen=True)
class Workload:
    k: int
    uniform_n: int | None   # None: the 11 x 11 study grid
    predicts: int           # predict calls per round, one period each, 100 x 100 grid
    draws: int              # predict --draws 20 calls per round, 32 x 32 grid


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    "swirl-k8": Workload(8, None, 4, 2),
    "sites400-k4": Workload(4, 400, 3, 3),
    "predict-periods": Workload(4, None, 12, 3),
}
END_TO_END = {"setup_s": "s", "estimate_s": "s", "cov_mse": "cov_sq", "predict_s": "s",
              "draws_s": "s", "peak_rss_mb": "MB"}
OVERHEAD = ["trace.overhead.estimate_s", "trace.overhead.predict_s", "trace.overhead.draws_s"]


def import_package():
    """Import the package from the checkout's src/, or exit 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spatdeform.cli
        from spatdeform import modelio
    except ImportError as e:
        sys.exit(f"bench: cannot import spatdeform from {src}: {e}")
    if not Path(spatdeform.cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: spatdeform was imported from {spatdeform.cli.__file__}, not {src}")
    return spatdeform.cli, modelio


# ---------------------------------------------------------------------------
# environment record


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    out = {}
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(lib).name] = int(fn())
                break
    return out


def source_revision() -> dict[str, str]:
    """Git commit of the checkout when it is a repository, and a hash of
    the package sources either way."""
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    out = {"src_sha256": digest.hexdigest()}
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return out
    lines = git.stdout.split()
    # only the checkout's own repository, not one that encloses it
    if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        out["git_sha"] = lines[1]
    return out


def environment() -> dict:
    import scipy
    return {
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **source_revision(),
    }


# ---------------------------------------------------------------------------
# one workload


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, cli, modelio, wl: Workload, inp: inputs.Inputs, workdir: Path,
                 seed: int, tracer: spans.Tracer | None):
        self.cli, self.modelio, self.wl, self.inp = cli, modelio, wl, inp
        self.workdir, self.tracer = workdir, tracer
        rng = inputs.rng_for(seed, 4)
        periods = rng.choice(inputs.T, wl.predicts + wl.draws, replace=False)
        self.plan = ([("predict", int(p)) for p in periods[:wl.predicts]]
                     + [("draws", int(p)) for p in periods[wl.predicts:]])
        self.draw_seed = int(rng.integers(2**31))
        self.sample = rng.choice(len(inp.grid), checks.KRIGE_SAMPLE, replace=False)
        self.draws_sample = rng.choice(len(inp.draws_grid), checks.KRIGE_SAMPLE, replace=False)
        self.ops: list[dict] = []
        self.mse: list[float] = []

    def _call(self, op: dict, argv: list[str], traced: bool) -> None:
        if traced:
            self.tracer.op = op["id"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as e:  # a traceback is a failed operation, not a crashed run
            code = f"raised {type(e).__name__}: {e}"
        op["seconds"] = time.perf_counter() - t0
        if traced:
            self.tracer.op = None
        if code != 0:
            op["failures"].append(f"exit {code}")

    def round(self, r: int, traced: bool) -> None:
        model_path = self.workdir / f"model{r}.json"
        op = self._new_op(r, "estimate", None, traced)
        self._call(op, ["estimate", "--data", str(self.inp.data_csv), "--k", str(self.wl.k),
                        "--out", str(model_path)], traced)
        model = None
        if not op["failures"]:
            model = self._checked(op, self._check_estimate, op, model_path)
        for kind, period in self.plan:
            op = self._new_op(r, kind, period, traced)
            grid_csv = self.inp.grid_csv if kind == "predict" else self.inp.draws_grid_csv
            out = self.workdir / f"pred{r}_{kind}_{period}.csv"
            argv = ["predict", "--model", str(model_path), "--data", str(self.inp.data_csv),
                    "--grid", str(grid_csv), "--time", inputs.time_label(period),
                    "--out", str(out)]
            if kind == "draws":
                argv += ["--draws", str(DRAWS), "--seed", str(self.draw_seed)]
            self._call(op, argv, traced)
            if model is None:
                op["failures"].append("no model from this round's estimate")
            elif not op["failures"]:
                self._checked(op, self._check_predict, op, model, kind, period, out)

    def _new_op(self, r, kind, period, traced) -> dict:
        op = {"id": len(self.ops), "round": r, "kind": kind, "period": period,
              "traced": traced, "failures": []}
        self.ops.append(op)
        return op

    @staticmethod
    def _checked(op: dict, check, *args):
        """Run a check; an output it cannot read is a wrong output."""
        try:
            return check(*args)
        except Exception as e:  # noqa: BLE001 - recorded as the operation's failure
            op["failures"].append(f"check raised {type(e).__name__}: {e}")
            return None

    def _check_estimate(self, op: dict, model_path: Path):
        bad = op["failures"]
        again = model_path.with_name(model_path.stem + "_roundtrip.json")
        self.modelio.save_model(self.modelio.load_model(model_path), again)
        if again.read_bytes() != model_path.read_bytes():
            bad.append("model file does not round-trip to identical bytes")
        model = checks.read_model(model_path)
        fails, mse = checks.check_model(model, self.inp.sites, self.inp.replicates,
                                        self.inp.truth)
        bad += fails
        self.mse.append(mse)
        op["cov_mse"] = mse
        return model

    def _check_predict(self, op, model, kind, period, out: Path) -> None:
        values = self.inp.replicates[:, period]
        points = self.inp.grid if kind == "predict" else self.inp.draws_grid
        sample = self.sample if kind == "predict" else self.draws_sample
        fails, mean, var = checks.check_prediction(model, self.inp.sites, values, points,
                                                   out, sample)
        op["failures"] += fails
        if kind == "draws" and mean is not None:
            cond = checks.conditional_cov(model, self.inp.sites, values, points)
            op["failures"] += checks.check_draws(out.with_name(out.stem + "_draws.csv"),
                                                 points, mean, var, DRAWS, cond)


def median_seconds(ops, kind, traced, first_round=0) -> float:
    vals = [o["seconds"] for o in ops
            if o["kind"] == kind and o["traced"] == traced and o["round"] >= first_round]
    return float(np.median(vals)) if vals else float("nan")


def run_workload(name: str, seed: int, seconds: float, traced_run: bool) -> dict:
    cli, modelio = import_package()
    wl = WORKLOADS[name]
    workdir = HERE / "work" / f"{name}-seed{seed}{'-trace' if traced_run else ''}"
    results = HERE / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = inputs.make_inputs(workdir, wl.uniform_n)
            setup.append(time.perf_counter() - t0)

        tracer = spans.Tracer() if traced_run else None
        runner = Runner(cli, modelio, wl, inp, workdir, seed, tracer)
        start = time.perf_counter()
        r = 0
        # a traced run alternates untraced and traced rounds on the same
        # inputs; its overhead compares them from round 1 on, since the first
        # round of a run is the slowest (by about a tenth for the K=4 fits)
        while r < (3 if traced_run else 1) or time.perf_counter() - start < seconds:
            traced = traced_run and r % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                runner.round(r, traced)
            r += 1

        ops = runner.ops
        e2e = {
            "setup_s": float(np.median(setup)),
            "estimate_s": median_seconds(ops, "estimate", False),
            "cov_mse": float(np.mean(runner.mse)) if runner.mse else float("nan"),
            "predict_s": median_seconds(ops, "predict", False),
            "draws_s": median_seconds(ops, "draws", False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        failed = sum(bool(o["failures"]) for o in ops)
        result = {
            "correct": not any(f for o in ops for f in o["failures"]
                               if not f.startswith(("exit ", "no model"))),
            "attempted": len(ops),
            "failed": failed,
        }
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": traced_run,
                  "rounds": r, "setup_runs_s": setup, "end_to_end": e2e,
                  "environment": environment(), "operations": ops}
        if traced_run:
            layer = spans.median_metrics([
                tracer.metrics([o["id"] for o in ops if o["round"] == rr])
                for rr in range(1, r, 2)])
            for key in OVERHEAD:
                kind = key.split(".")[-1].removesuffix("_s")
                layer[key] = (median_seconds(ops, kind, True)
                              - median_seconds(ops, kind, False, first_round=1))
            record["per_layer"] = layer
            record["missing_functions"] = tracer.missing
            tracer.write(results / f"{name}-seed{seed}-spans.jsonl", ops)
            units = {k: spans.UNITS[k.rsplit(".", 1)[1]] for k in spans.PER_LAYER}
            units.update({k: "s" for k in OVERHEAD})
            result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        else:
            result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        (results / f"{name}-seed{seed}{'-trace' if traced_run else ''}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# command line


def print_result(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:16s} {key:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:16s} operations attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")


def run_all(args) -> dict:
    """Each workload in a fresh process of its own (peak memory is per process)."""
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: workload {name} exited {proc.returncode}")
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(name, out[name])
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
