"""The three benchmark workloads: closed_forms, oracle_verdicts, cli_session.

Each workload is closed-loop with one client: the next op starts when the
previous one has returned. Constructing a workload is its set-up (inputs,
references, warm-up). ``batches()`` yields the untraced op sequence in whole
batches; the runner only stops between batches, so every run covers whole
cycles of the op mix. Batches reuse their Op objects, so the runner can tell
repeats of one op apart from other ops. ``trace_batches()`` is the fixed op
list that the traced run replays once untraced and once traced.

Ops call the library through module attributes (``geodesy.omega_iso``), so
the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional

import numpy as np

import geolog.cli as cli
import geolog.constitutive as constitutive
import geolog.geodesy as geodesy
import geolog.matcore as matcore
import geolog.oracle as oracle
import geolog.strain as strain

import inputs
import reference


@dataclass
class Op:
    """One benchmark op: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is right, else a pair
    (category, message); category "wrong" means the program's output is
    incorrect and "verdict" that an oracle reported FAIL.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[tuple]]
    info: dict = field(default_factory=dict)


@dataclass
class Record:
    kind: str
    seconds: float
    problem: Optional[tuple]
    info: dict
    op: int  # id() of the Op, the same for every repeat of one op


def run_one(op: Op, op_id: int, tracer=None) -> Record:
    """Run one op, time it, then check its output outside the timed span.

    An op that raises, or whose output the check cannot even read, is a
    failed op; the run goes on.
    """
    start = perf_counter()
    try:
        out = op.run() if tracer is None else tracer.run_op(op_id, op.run)
    except Exception as exc:
        return Record(op.kind, perf_counter() - start, ("error", f"{type(exc).__name__}: {exc}"),
                      op.info, id(op))
    seconds = perf_counter() - start
    try:
        problem = op.check(out)
    except Exception as exc:
        problem = ("wrong", f"unreadable output: {type(exc).__name__}: {exc}")
    return Record(op.kind, seconds, problem, op.info, id(op))


def _close(value: float, ref: float, rel: float = 1e-10) -> bool:
    return abs(float(value) - ref) <= rel * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# closed_forms
# ---------------------------------------------------------------------------

CLOSED_FORM_METRIC = matcore.MetricParams(mu=2.0, mu_c=1.0, kappa=1.0)
CLOSED_FORM_MODELS = (
    constitutive.MaterialModel(kind="hencky", mu=0.5, kappa=1.5),
    constitutive.MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3),
    constitutive.MaterialModel(kind="biot_linear", mu=0.5, kappa=1.5),
)


def _error(value, ref) -> float:
    return float(np.max(np.abs(np.asarray(value, dtype=float) - ref)))


def closed_form_outputs(F: np.ndarray) -> dict:
    """The closed_forms op: one F through every closed form of the op set."""
    p = CLOSED_FORM_METRIC
    hencky, exp_hencky, biot = CLOSED_FORM_MODELS
    tau_h = constitutive.kirchhoff_stress(hencky, F)
    tau_e = constitutive.kirchhoff_stress(exp_hencky, F)
    return {
        "dist_squared_to_SO": geodesy.dist_squared_to_SO(F, p).squared_distance,
        "omega_iso": geodesy.omega_iso(F),
        "omega_vol": geodesy.omega_vol(F),
        "euclid_dist_to_SO": geodesy.euclid_dist_to_SO(F).distance,
        "dist_cof_squared_to_SO": geodesy.dist_cof_squared_to_SO(F, p),
        "energy.hencky": constitutive.energy(hencky, F),
        "energy.exp_hencky": constitutive.energy(exp_hencky, F),
        "energy.biot_linear": constitutive.energy(biot, F),
        "kirchhoff.hencky": tau_h,
        "kirchhoff.exp_hencky": tau_e,
        "cauchy.hencky": constitutive.cauchy_stress(tau_h, F),
        "cauchy.exp_hencky": constitutive.cauchy_stress(tau_e, F),
        "hencky_tensor": strain.hencky_tensor(matcore.polar_decompose(F).right_stretch).value,
    }


class ClosedForms:
    name = "closed_forms"
    min_batches = 1
    # Ops of a few milliseconds, each repeated dozens of times across the
    # run, so each input's best time skips the moments that other load on
    # the machine slowed.
    best_of_repeats = True

    def __init__(self, seed: int, pool_size: int = 200, batch: int = 50,
                 trace_ops: int = 400, warmup: int = 20):
        self.batch = batch
        self.trace_ops = trace_ops
        self.ops = [self._op(label, F) for label, F in inputs.closed_form_pool(seed, pool_size)]
        for op in self.ops[:warmup]:
            op.run()

    @staticmethod
    def _op(label: str, F: np.ndarray) -> Op:
        refs = reference.closed_form_reference(F, CLOSED_FORM_METRIC, CLOSED_FORM_MODELS)

        def check(out: dict) -> Optional[tuple]:
            bad = [key for key, ref in refs.items() if not reference.within(out[key], ref)]
            if not bad:
                return None
            return ("wrong", f"{label} input: " + "; ".join(
                f"{key} off by {_error(out[key], refs[key][0]):.3g} (tolerance {refs[key][1]:.3g})"
                for key in bad))

        return Op("closed_forms", lambda: closed_form_outputs(F), check, {"input": label})

    def batches(self) -> Iterator[List[Op]]:
        cycle = itertools.cycle(self.ops)
        while True:
            yield list(itertools.islice(cycle, self.batch))

    def trace_batches(self) -> List[List[Op]]:
        return [list(itertools.islice(itertools.cycle(self.ops), self.trace_ops))]


# ---------------------------------------------------------------------------
# oracle_verdicts
# ---------------------------------------------------------------------------

PATH_TRIPLES = ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 3.0, 0.5))
LOGMIN_WEIGHTS = matcore.MetricParams(2.0, 1.0, 1.0)


def _verdict_check(F: np.ndarray, claim: str, metric=None):
    ref = reference.oracle_closed_form(F, claim, metric)

    def check(verdict) -> Optional[tuple]:
        if not _close(verdict.closed_form_value, ref):
            return ("wrong", f"{claim}: closed form {verdict.closed_form_value!r} != reference {ref!r}")
        if not verdict.passed:
            return ("verdict", str(verdict))
        return None

    return check


class OracleVerdicts:
    name = "oracle_verdicts"
    # One batch is the README prologue plus two cycles, repeated as it is, so
    # the op mix is the same however many batches a run fits in. The
    # prologue is the README's first four draws; its fifth gets a FAIL
    # verdict from the program (bench/tests/test_known_defects.py).
    min_batches = 2
    # Ops of about a second, repeated two or three times: a best time would
    # hang on whether a rare fast stretch of the machine fell in the run.
    best_of_repeats = False

    def __init__(self, seed: int, prologue: int = 4, logmin_samples: int = 10000,
                 grioli_iters: int = 60000, path_iters: int = 200000):
        self.seed = seed
        self.logmin_cfg = oracle.OracleConfig(seed=103, samples=logmin_samples, nodes=4,
                                              tol=1e-6, max_iters=10)
        self.grioli_cfg = oracle.OracleConfig(seed=102, samples=64, nodes=4, tol=1e-6,
                                              max_iters=grioli_iters)
        self.path_iters = path_iters
        readme_p = matcore.MetricParams(1.0, 1.0, 1.0)
        self.prologue = [
            self._path_op(F, readme_p, seed=7, samples=5, label=f"readme-{i + 1}")
            for i, F in enumerate(inputs.readme_draws(prologue))
        ]
        oracle.grioli_oracle(np.eye(3), self.grioli_cfg)
        oracle.logmin_oracle(np.eye(2), oracle.OracleConfig(seed=103, samples=50, nodes=4))

    def _path_op(self, F, p, seed: int, samples: int, label: str) -> Op:
        nodes = inputs.auto_nodes(F)
        cfg = oracle.OracleConfig(seed=seed, samples=samples, nodes=nodes, tol=0.02,
                                  max_iters=self.path_iters)
        return Op("geodesic_distance_oracle",
                  lambda: oracle.geodesic_distance_oracle(F, p, cfg),
                  _verdict_check(F, "path", p), {"input": label, "nodes": nodes})

    def cycle(self, index: int) -> List[Op]:
        draws = inputs.oracle_cycle(self.seed, index)
        ops = [
            self._path_op(F, matcore.MetricParams(*triple), seed=101, samples=1,
                          label=f"cycle-{index}")
            for F, triple in zip(draws["path"], PATH_TRIPLES)
        ]
        F = draws["log"]
        ops.append(Op("logmin_oracle", lambda: oracle.logmin_oracle(F, self.logmin_cfg),
                      _verdict_check(F, "logmin"), {"input": f"cycle-{index}"}))
        ops.append(Op("weighted_logmin_oracle",
                      lambda: oracle.weighted_logmin_oracle(F, LOGMIN_WEIGHTS, self.logmin_cfg),
                      _verdict_check(F, "weighted", LOGMIN_WEIGHTS), {"input": f"cycle-{index}"}))
        for G in draws["grioli"]:
            ops.append(Op("grioli_oracle", lambda G=G: oracle.grioli_oracle(G, self.grioli_cfg),
                          _verdict_check(G, "grioli"), {"input": f"cycle-{index}"}))
        return ops

    def batches(self) -> Iterator[List[Op]]:
        return itertools.repeat(self.prologue + self.cycle(0) + self.cycle(1))

    def trace_batches(self) -> List[List[Op]]:
        return [self.prologue, self.cycle(0)]


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

# Runs geolog.cli.main in a fresh interpreter and reports that process's peak
# resident memory on stderr, since the console script is not installed.
CLI_STUB = (
    "import resource, sys\n"
    "from geolog.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print('bench-maxrss-kb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
_MAXRSS = re.compile(r"^bench-maxrss-kb (\d+)$", re.M)
FIT_CONTROLS = tuple(0.45 + 0.195 * i for i in range(12))
FIT_TRUTH = {"mu": 0.4, "kappa": 2.0}


@dataclass
class CliOutput:
    code: int
    stdout: bytes


def cli_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliSession:
    name = "cli_session"
    # Two sessions at least, so path tables are compared byte for byte.
    min_batches = 2
    best_of_repeats = False  # as for oracle_verdicts: ops of about a second

    def __init__(self, seed: int, root, workdir, invocations: Optional[List[int]] = None):
        self.root = root
        self.env = cli_env(root)
        workdir.mkdir(parents=True, exist_ok=True)
        matrix = workdir / "F3.json"
        matrix.write_text(json.dumps(inputs.cli_matrix(seed).tolist()), encoding="utf-8")
        fit_data = workdir / "fit.csv"
        stresses = cli.predict_stresses(constitutive.MaterialModel(kind="hencky", **FIT_TRUTH),
                                        "uniaxial_free", "cauchy", FIT_CONTROLS)
        fit_data.write_text("control,stress\n" + "".join(
            f"{c!r},{s!r}\n" for c, s in zip(FIT_CONTROLS, stresses)), encoding="utf-8")
        self.out_csv = workdir / "uniaxial_free.csv"
        path_args = ("path", "--from", "0.5", "--to", "2.0")
        self.argvs = [
            ["measure", "--matrix", "[[1,1],[0,1]]"],
            ["measure", "--matrix", f"@{matrix}", "--format", "json", "--mu", "2", "--kappa", "0.5"],
            [*path_args, "--mode", "volumetric", "--model", "hencky", "--steps", "60"],
            [*path_args, "--mode", "uniaxial_free", "--model", "exp_hencky", "--steps", "41",
             "--out", str(self.out_csv)],
            ["path", "--from", "-1", "--to", "1", "--mode", "simple_shear", "--model",
             "exp_hencky", "--steps", "41"],
            ["fit", "--data", str(fit_data), "--model", "hencky", "--mode", "uniaxial_free",
             "--stress", "cauchy"],
            ["verify", "--suite", "log-rules", "--samples", "200", "--seed", "1", "--tol", "1e-10"],
            ["verify", "--suite", "symmetry", "--dim", "3", "--samples", "20"],
        ]
        self.indices = list(range(len(self.argvs))) if invocations is None else invocations
        self.checks = {i: self._checker(i, inputs.cli_matrix(seed)) for i in self.indices}
        self.first_bytes: dict = {}
        self.max_child_rss_kb = 0

    # -- references and checks ---------------------------------------------

    def _checker(self, i: int, F3: np.ndarray) -> Callable[[CliOutput], Optional[tuple]]:
        argv = self.argvs[i]
        if argv[0] == "measure":
            F, p = (np.array([[1.0, 1.0], [0.0, 1.0]]), matcore.MetricParams()) if i == 0 else \
                (F3, matcore.MetricParams(mu=2.0, kappa=0.5))
            expected = cli.measure_payload(F, p)
            parse = _parse_measure_json if "--format" in argv else _parse_measure_table
            rel = 1e-12 if "--format" in argv else 1e-10
            return self._wrap(i, lambda text: _compare_measure(parse(text), expected, rel))
        if argv[0] == "path":
            opts = dict(zip(argv[1::2], argv[2::2]))
            mode = cli.DeformationMode(kind=opts["--mode"], start=float(opts["--from"]),
                                       stop=float(opts["--to"]), steps=int(opts["--steps"]))
            rows = cli.path_rows(mode, constitutive.MaterialModel(kind=opts["--model"]))
            return self._wrap(i, lambda text: _compare_path(text, rows), repeatable=True)
        if argv[0] == "fit":
            return self._wrap(i, _check_fit)
        return self._wrap(i, _check_verify)

    def _wrap(self, i: int, check: Callable[[str], Optional[str]], repeatable: bool = False):
        def full(out: CliOutput) -> Optional[tuple]:
            if out.code != 0:
                return ("wrong", f"{self.argvs[i][0]} exited {out.code}")
            data = self.out_csv.read_bytes() if "--out" in self.argvs[i] else out.stdout
            if repeatable:
                first = self.first_bytes.setdefault(i, data)
                if data != first:
                    return ("wrong", f"invocation {i} output differs from its first run")
            problem = check(data.decode("utf-8"))
            return None if problem is None else ("wrong", f"invocation {i}: {problem}")
        return full

    # -- ops -----------------------------------------------------------------

    def _spawn(self, argv: List[str]) -> CliOutput:
        proc = subprocess.run([sys.executable, "-c", CLI_STUB, *argv], env=self.env,
                              cwd=self.root, capture_output=True, timeout=120)
        match = _MAXRSS.search(proc.stderr.decode("utf-8", "replace"))
        if match:
            self.max_child_rss_kb = max(self.max_child_rss_kb, int(match.group(1)))
        return CliOutput(proc.returncode, proc.stdout)

    def _in_process(self, argv: List[str]) -> CliOutput:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return CliOutput(code, buf.getvalue().encode("utf-8"))

    def session(self, in_process: bool = False) -> List[Op]:
        runner = self._in_process if in_process else self._spawn

        def invoke(argv: List[str]) -> CliOutput:
            if "--out" in argv:  # a stale table must not pass for a fresh one
                self.out_csv.unlink(missing_ok=True)
            return runner(argv)

        return [Op(self.argvs[i][0], lambda i=i: invoke(self.argvs[i]), self.checks[i],
                   {"invocation": i}) for i in self.indices]

    def batches(self) -> Iterator[List[Op]]:
        return itertools.repeat(self.session())

    def trace_batches(self) -> List[List[Op]]:
        return [self.session(in_process=True)]


def _parse_measure_table(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("omega_iso", "omega_vol", "dist_squared_geod", "dist_euclid"):
            values[parts[0]] = float(parts[1])
    return values


def _parse_measure_json(text: str) -> dict:
    return json.loads(text)


def _compare_measure(got: dict, expected: dict, rel: float) -> Optional[str]:
    for key, value in got.items():
        ref = np.asarray(expected[key], dtype=float)
        if np.asarray(value).shape != ref.shape or \
                np.max(np.abs(np.asarray(value, dtype=float) - ref)) > rel * max(1.0, float(np.max(np.abs(ref)))):
            return f"measure {key} = {value} differs from the library value {expected[key]}"
    if len(got) < 4:
        return f"measure printed only {sorted(got)}"
    return None


def _compare_path(text: str, rows) -> Optional[str]:
    lines = text.strip().splitlines()
    if lines[0] != cli.CSV_HEADER or len(lines) != len(rows) + 1:
        return "path table has the wrong header or row count"
    for line, row in zip(lines[1:], rows):
        if not all(_close(float(x), ref, 1e-12) for x, ref in zip(line.split(","), row)):
            return f"path row {line} differs from path_rows {row}"
    return None


def _check_fit(text: str) -> Optional[str]:
    found = dict(re.findall(r"^(mu|kappa) = (\S+)$", text, re.M))
    for name, truth in FIT_TRUTH.items():
        if name not in found or abs(float(found[name]) - truth) > 1e-3 * truth:
            return f"fit {name} = {found.get(name)} is not within 1e-3 of {truth}"
    return None


def _check_verify(text: str) -> Optional[str]:
    match = re.search(r"(\d+)/(\d+) claims passed\s*$", text)
    if match is None or match.group(1) != match.group(2):
        return f"verify summary: {text.strip().splitlines()[-1:]}"
    return None


def process_seconds(argv: List[str], env: dict, cwd, repeats: int) -> float:
    """Median wall time of a fresh ``python`` process running ``argv``."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
    return float(np.median(times))


WORKLOADS = {w.name: w for w in (ClosedForms, OracleVerdicts, CliSession)}
