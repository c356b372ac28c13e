"""The three workloads.  Each is a closed loop from one process: the next
call starts when the previous one has returned.

* ``cli_cold``: a first session with an empty table cache, four fresh
  ``hdcca`` subprocesses, every one a table miss.
* ``cli_warm``: everyday CLI use on a cache warmed during set-up; a mix of
  report reads and CSV writes, every table read a hit.
* ``mc_study``: the paper's size-and-power study as library calls, tables
  built during set-up.

A unit of work is one session, one mix or one study round.  Every output
is checked; see ``checks.py`` and README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hdcca import cca_core, cointegration, dataio, hyptest, spike, wachter
from hdcca.ensembles import Seed

import checks
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ALPHAS = (0.9, 0.95, 0.99)
CALL_TIMEOUT_S = 120

# Table sizes.  The CLI default of 10^4 Airy draws takes ~35 s per table;
# 1000 keeps a cold session near 12 s with the sampler still its largest cost.
COLD_AIRY_NSAMPLES = 1000
WARM_AIRY_NSAMPLES = 100  # only set-up pays for it; reads cost the same at any size
WARM_SMALL_NSAMPLES = 2000
STUDY_NSAMPLES = {"airy": 500, "laguerre": 10_000, "brownian": 2000}

# Study round: per round, this many reps of each small config and each large one.
SMALL_REPS = 150
LARGE_REPS = 6
SPIKE_RHO2 = 0.49
# Measured at 100 x 150 x 500: the outlier clears the default detection
# threshold in about two runs of three; a correct program stays far above this.
MIN_SPIKE_DETECTION = 0.4


@dataclass
class Unit:
    """What one unit of work did and how long it took, per kind of operation."""

    wall: float = 0.0
    cpu: float = 0.0
    kind_s: dict = field(default_factory=dict)
    kind_n: dict = field(default_factory=dict)
    kind_regime: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    import_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def op(self, kind: str, regime: str, seconds: float, problem: str | None = None) -> None:
        """Count one operation of a kind; a problem marks it failed."""
        self.attempted += 1
        self.kind_s[kind] = self.kind_s.get(kind, 0.0) + seconds
        self.kind_n[kind] = self.kind_n.get(kind, 0) + 1
        self.kind_regime[kind] = regime
        if problem:
            self.failed += 1
            self.problems.append(problem)


def _cpu_children() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _snapshot(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# --- CLI workloads -----------------------------------------------------------


class CliWorkload:
    """Runs ``hdcca`` subprocesses against inputs written during set-up."""

    name = ""
    predicted = ()
    airy_nsamples = 0  # Airy draws behind the independence-large threshold

    def __init__(self, root: Path, work: Path, seed: int):
        self.work, self.seed = work, seed
        work.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "HDCCA_TABLE_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        env["XDG_CACHE_HOME"] = str(work / "xdg-cache")  # the user cache is never read
        self.env = env
        self._reference = {}

    def write_inputs(self) -> None:
        """Null panels and random-walk series, generated from the seed."""
        self.paths = {}
        for i, (size, (K, M)) in enumerate((("small", (2, 3)), ("large", (100, 150)))):
            U, V = spike.simulate_spiked_panels(K, M, 500, [], Seed(self.seed, i))
            for side, panel in (("u", U), ("v", V)):
                self.paths[f"{side}_{size}"] = path = self.work / f"{side}_{size}.csv"
                dataio.save_panel_csv(path, panel)
            X = cointegration.simulate_var1(cointegration.VarModel.pure_random_walk(K), 1000, Seed(self.seed, 10 + i))
            self.paths[f"ts_{size}"] = path = self.work / f"ts_{size}.csv"
            dataio.save_timeseries_csv(path, X)

    def reference(self, key: str) -> np.ndarray:
        """Reference spectrum of an input, from the benchmark's own QR + SVD."""
        if key not in self._reference:
            size = key.split("_")[-1]
            if key.startswith("panels"):
                U = np.loadtxt(self.paths[f"u_{size}"], delimiter=",", skiprows=1, ndmin=2)
                V = np.loadtxt(self.paths[f"v_{size}"], delimiter=",", skiprows=1, ndmin=2)
            else:
                X = np.loadtxt(self.paths[f"ts_{size}"], delimiter=",", skiprows=1)[:, 1:].T
                U, V = checks.detrended_panels(X) if key.startswith("detrended") else (np.diff(X, axis=1), X[:, :-1])
            self._reference[key] = checks.reference_corr_sq(U, V)
        return self._reference[key]

    def run_call(self, unit: Unit, argv: list[str], traced: bool):
        """Run one CLI call to completion; returns (seconds, exit code, stderr)."""
        if traced:
            spans_file = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "hdcca", *argv]
        cpu0 = _cpu_children()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = None, f"no exit within {CALL_TIMEOUT_S} s"
        elapsed = time.perf_counter() - t0
        unit.wall += elapsed
        unit.cpu += _cpu_children() - cpu0
        if traced and spans_file.exists():
            doc = json.loads(spans_file.read_text())
            spans_file.unlink()
            offset = len(unit.spans)
            for s in doc["spans"]:
                s[4] = s[4] + offset if s[4] >= 0 else -1
            unit.spans.extend(doc["spans"])
            unit.import_s += doc["import_s"]
        return elapsed, rc, err

    def test_report_problem(self, name: str, out: Path, rc, err: str) -> str | None:
        """Schema, exit code, threshold and decision of a test report, its
        statistic against one recomputed from the reference spectrum, and
        the r = 1 edge threshold against F1."""
        if rc not in (0, 3):
            return f"{name}: exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        try:
            doc = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as e:
            return f"{name}: unreadable report: {e}"
        command, regime = name.split("-")[:2]
        if doc.get("schema") != "hdcca.report/1" or doc.get("command") != command:
            return f"{name}: wrong schema or command"
        if doc.get("regime") != f"{regime}_dim" or doc.get("alpha") != checks.ALPHA:
            return f"{name}: wrong regime or alpha"
        stat, thr, decision = doc.get("statistic"), doc.get("threshold"), doc.get("decision")
        if not (_finite(stat) and _finite(thr)) or decision not in ("reject", "fail_to_reject"):
            return f"{name}: statistic, threshold or decision missing"
        reject = stat < thr if (command, regime) == ("coint", "small") else stat > thr
        if reject != (decision == "reject") or (rc == 3) != reject:
            return f"{name}: decision {decision} and exit {rc} disagree with {stat} vs {thr}"
        diag = doc.get("diagnostics", {})
        if command == "independence":
            want = self.reference(f"panels_{regime}")[0]
            got = diag.get("top_corr_sq")
        elif regime == "small":
            want = 1000 / 2.0 * math.log1p(-self.reference("levels_small")[0])
            got = stat
        else:
            r = diag.get("r", 0)
            K = self.reference("detrended_large").size
            logs = np.log1p(-self.reference("detrended_large")[:r]).sum()
            want = (logs - r * diag["c1"]) / (K ** (-2.0 / 3.0) * diag["c2"])
            got = stat
        if not _finite(got) or not checks.close(got, want, 1e-7):
            return f"{name}: statistic {got} differs from the reference {want}"
        if name == "independence-large":
            return checks.f1_threshold_problem(thr, self.airy_nsamples)
        return None

    def final_problems(self) -> list[str]:
        return []


class CliCold(CliWorkload):
    name = "cli_cold"
    predicted = ("ensembles",)
    airy_nsamples = COLD_AIRY_NSAMPLES

    def setup(self, rep: int) -> None:
        self.write_inputs()

    def calls(self, cache: Path):
        p = {k: str(v) for k, v in self.paths.items()}
        common = ["--seed", str(self.seed), "--table-cache-dir", str(cache)]
        n = ["--nsamples", str(self.airy_nsamples)]
        return [
            ("independence-small", ["independence", "--u", p["u_small"], "--v", p["v_small"], "--regime", "small", *common]),
            ("independence-large", ["independence", "--u", p["u_large"], "--v", p["v_large"], "--regime", "large", *n, *common]),
            ("coint-small", ["coint", "--input", p["ts_small"], "--regime", "small", *common]),
            # r = 2: an r = 1 edge table would be a disk hit after independence-large.
            ("coint-large-r2", ["coint", "--input", p["ts_large"], "--regime", "large", "--r", "2", *n, *common]),
        ]

    def unit(self, index: int, traced: bool = False) -> Unit:
        u = Unit()
        cache = self.work / f"cache-{index}{'-traced' if traced else ''}"
        cache.mkdir()  # a fresh, empty cache: every call must build its table
        for name, argv in self.calls(cache):
            out = self.work / f"{name}.json"
            before = set(os.listdir(cache))
            elapsed, rc, err = self.run_call(u, [*argv, "--output", str(out)], traced)
            problem = self.test_report_problem(name, out, rc, err)
            added = set(os.listdir(cache)) - before
            if len(added) != 1 or any(not a.endswith(".json") for a in added):
                problem = problem or f"{name}: added {sorted(added)} to the cache, expected one table"
            else:
                u.cache_misses += 1
            u.op(name, name.split("-")[1], elapsed, problem)
        return u


class CliWarm(CliWorkload):
    name = "cli_warm"
    predicted = ("cli", "dataio")
    airy_nsamples = WARM_AIRY_NSAMPLES

    def setup(self, rep: int) -> None:
        self.write_inputs()
        U = dataio.load_panel_csv(self.paths["u_large"])
        V = dataio.load_panel_csv(self.paths["v_large"])
        spec = wachter.Spectrum(cca_core.sample_cca(U, V).correlations_sq, meta={"K": 100, "M": 150, "S": 500})
        self.paths["spectrum"] = self.work / "spectrum.json"
        dataio.save_spectrum_json(self.paths["spectrum"], spec)
        self.cache = self.work / f"cache-{rep}"
        self.cache.mkdir()
        warm = [argv for name, _, argv in self.calls() if "--table-cache-dir" in argv]
        code = (
            "import json, sys\nfrom hdcca.cli import main\n"
            "sys.exit(max(main([*a, '--output', sys.argv[2]]) not in (0, 3) for a in json.loads(sys.argv[1])))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(warm), str(self.work / "warm.json")],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
        if proc.returncode != 0 or len(os.listdir(self.cache)) != 3:
            raise RuntimeError(f"warming the table cache failed: {proc.stderr.strip()[-500:]}")
        self.snapshot = _snapshot(self.cache)

    def calls(self):
        p = {k: str(v) for k, v in self.paths.items()}
        common = ["--seed", str(self.seed), "--table-cache-dir", str(self.cache)]
        big = ["--nsamples", str(self.airy_nsamples)]
        small = ["--nsamples", str(WARM_SMALL_NSAMPLES)]
        out = lambda name: str(self.work / name)  # noqa: E731
        return [
            ("cca", "large", ["cca", "--u", p["u_large"], "--v", p["v_large"], "--output", out("cca.json")]),
            ("independence-large", "large",
             ["independence", "--u", p["u_large"], "--v", p["v_large"], "--regime", "large", *big, *common]),
            ("coint-large", "large", ["coint", "--input", p["ts_large"], "--regime", "large", *big, *common]),
            ("histogram", "large", ["histogram", "--spectrum", p["spectrum"], "--tau-k", "5", "--tau-m", repr(500 / 150),
                                    "--bins", "50", "--output", out("hist.csv")]),
            ("independence-small", "small",
             ["independence", "--u", p["u_small"], "--v", p["v_small"], "--regime", "small", *small, *common]),
            ("coint-small", "small", ["coint", "--input", p["ts_small"], "--regime", "small", *small, *common]),
            ("simulate-panels", "large", ["simulate", "panels", "--k", "100", "--m", "150", "--s", "500", "--rho2",
                                          str(SPIKE_RHO2), "--seed", str(self.seed), "--output-u", out("sim_u.csv"),
                                          "--output-v", out("sim_v.csv")]),
            ("simulate-var1", "large", ["simulate", "var1", "--k", "100", "--t", "1000", "--seed", str(self.seed),
                                        "--output", out("sim_ts.csv")]),
        ]

    def unit(self, index: int, traced: bool = False) -> Unit:
        u = Unit()
        for name, regime, argv in self.calls():
            out = self.work / f"{name}.json"
            is_test = name.startswith(("independence", "coint"))
            elapsed, rc, err = self.run_call(u, [*argv, "--output", str(out)] if is_test else argv, traced)
            if is_test:
                problem = self.test_report_problem(name, out, rc, err)
            elif rc != 0:
                problem = f"{name}: exit {rc}: {err.strip()[-300:]}"
            else:
                problem = getattr(self, "check_" + name.replace("-", "_"))()
            if _snapshot(self.cache) != self.snapshot:
                problem = problem or f"{name}: the warm table cache changed"
            elif is_test:
                u.cache_hits += 1
            u.op(name, regime, elapsed, problem)
        return u

    def check_cca(self) -> str | None:
        try:
            doc = json.loads((self.work / "cca.json").read_text())
            c = np.asarray(doc["correlations_sq"])
            a, b = np.asarray(doc["alphas"]), np.asarray(doc["betas"])
        except (OSError, ValueError, KeyError) as e:
            return f"cca: unreadable report: {e}"
        if doc.get("schema") != "hdcca.cca/1" or a.shape != (100, 100) or b.shape != (150, 150):
            return "cca: wrong schema or vector shapes"
        if not checks.close(c, self.reference("panels_large")):
            return "cca: correlations differ from the QR + SVD reference"
        U = np.loadtxt(self.paths["u_large"], delimiter=",", skiprows=1)
        V = np.loadtxt(self.paths["v_large"], delimiter=",", skiprows=1)
        x, y = U.T @ a[0], V.T @ b[0]
        if not checks.close((x @ y) ** 2 / ((x @ x) * (y @ y)), c[0]):
            return "cca: the first canonical pair does not realize the top correlation"
        return None

    def check_histogram(self) -> str | None:
        lines = (self.work / "hist.csv").read_text().splitlines()
        if lines[0] != "bin_center,empirical_density,wachter_density" or len(lines) != 51:
            return "histogram: wrong header or bin count"
        rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
        if not np.all(np.isfinite(rows)) or np.any(rows[:, 1:] < 0) or not checks.close(rows[:, 1].sum() / 50, 1.0, 1e-9):
            return "histogram: densities are not a normalized, non-negative histogram"
        return None

    def check_simulate_panels(self) -> str | None:
        for side, rows in (("u", 100), ("v", 150)):
            data = np.loadtxt(self.work / f"sim_{side}.csv", delimiter=",", skiprows=1)
            if data.shape != (rows, 500) or not np.all(np.isfinite(data)):
                return f"simulate-panels: {side} panel has shape {data.shape}"
        return None

    def check_simulate_var1(self) -> str | None:
        data = np.loadtxt(self.work / "sim_ts.csv", delimiter=",", skiprows=1)
        if data.shape != (1001, 101) or not np.array_equal(data[:, 0], np.arange(1001)) or not np.all(np.isfinite(data)):
            return f"simulate-var1: series has shape {data.shape} or a bad time index"
        return None


# --- Monte Carlo study --------------------------------------------------------


class McStudy:
    """Size and power of the four tests, as criterion 12 of the acceptance gate
    runs them, plus rank-one cointegration and one planted spike."""

    name = "mc_study"
    predicted = ("cca_core",)
    SMALL = ("independence_small", "coint_small")
    LARGE = ("independence_large", "coint_large", "coint_power", "spike_power")

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.rw2 = cointegration.VarModel.pure_random_walk(2)
        self.rw100 = cointegration.VarModel.pure_random_walk(100)
        pi = np.zeros((100, 100))
        pi[0, 0] = -1.0
        self.corner100 = cointegration.VarModel(pi=pi, lam=np.eye(100), x0=np.zeros(100))
        self.params = wachter.WachterParams.from_dimensions(100, 150, 500)
        self.rejections = {k: 0 for k in self.SMALL + self.LARGE}
        self.reps = dict.fromkeys(self.rejections, 0)
        self.spike_tops, self.spike_angles = [], []

    def setup(self, rep: int) -> None:
        # A fresh stream per repetition: hdcca memoizes edge simulations in-process.
        seed = Seed(self.seed, 1000 + rep)
        n = STUDY_NSAMPLES
        self.tables = {
            "laguerre": hyptest.tabulate_laguerre_max(2, 3, ALPHAS, n["laguerre"], seed),
            "airy": hyptest.tabulate_airy1_sums(1, ALPHAS, 100, n["airy"], seed),
            "brownian": cointegration.tabulate_brownian_coint(2, 1, ALPHAS, 1000, n["brownian"], seed),
        }

    def _rep(self, kind: str, i: int):
        """One replicate: simulate from its own seed, run the test, return what the checks need."""
        seed = Seed(self.seed, (self.SMALL + self.LARGE).index(kind) * 10**9 + i)
        t = self.tables
        if kind == "independence_small":
            U, V = spike.simulate_spiked_panels(2, 3, 500, [], seed)
            return hyptest.independence_test_small(U, V, checks.ALPHA, t["laguerre"]), (U, V)
        if kind == "coint_small":
            X = cointegration.simulate_var1(self.rw2, 1000, seed)
            return cointegration.coint_test_small(X, 1, checks.ALPHA, t["brownian"]), X
        if kind == "independence_large":
            U, V = spike.simulate_spiked_panels(100, 150, 500, [], seed)
            return hyptest.independence_test_large(U, V, checks.ALPHA, t["airy"]), (U, V)
        if kind in ("coint_large", "coint_power"):
            X = cointegration.simulate_var1(self.rw100 if kind == "coint_large" else self.corner100, 1000, seed)
            return cointegration.coint_test_large(X, 1, checks.ALPHA, t["airy"]), X
        U, V = spike.simulate_spiked_panels(100, 150, 500, [SPIKE_RHO2], seed)
        cs = cca_core.sample_cca(U, V)
        found = spike.estimate_signals(wachter.Spectrum(cs.correlations_sq, meta={"K": 100}), self.params)
        angle = cca_core.alignment_angle(U, np.eye(100)[0], cs.alphas[0])
        return (found, cs, angle), (U, V)

    def unit(self, index: int, traced: bool = False) -> Unit:
        u = Unit()
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        sampled = []
        cpu0 = time.process_time()
        try:
            for regime, kinds, reps in (("small", self.SMALL, SMALL_REPS), ("large", self.LARGE, LARGE_REPS)):
                for i in range(index * reps, (index + 1) * reps):
                    for kind in kinds:
                        t0 = time.perf_counter()
                        try:
                            result, inputs = self._rep(kind, i)
                        except Exception as e:  # a failed replicate is counted, not fatal
                            u.op(kind, regime, time.perf_counter() - t0, f"{kind} rep {i}: {type(e).__name__}: {e}")
                            continue
                        u.op(kind, regime, time.perf_counter() - t0)
                        if i % reps == 0:
                            sampled.append((kind, result, inputs))
                        if not traced:
                            self._count(kind, result)
        finally:
            if tracer:
                tracer.uninstall()
                u.spans = tracer.spans
        u.wall = sum(u.kind_s.values())
        u.cpu = time.process_time() - cpu0
        u.problems += [p for p in (self._check(*s) for s in sampled) if p]
        return u

    def _count(self, kind: str, result) -> None:
        self.reps[kind] += 1
        if kind == "spike_power":
            found, cs, angle = result
            self.rejections[kind] += found.n_signals >= 1
            self.spike_tops.append(cs.correlations_sq[0])
            self.spike_angles.append(angle)
        else:
            self.rejections[kind] += result.rejected

    def _check(self, kind: str, result, inputs) -> str | None:
        """A sampled replicate against the benchmark's own reference computation."""
        if kind == "spike_power":
            _, cs, _ = result
            U, V = inputs
            ok = checks.close(cs.correlations_sq, checks.reference_corr_sq(U.values, V.values))
            return None if ok else "spike_power: sample_cca spectrum differs from the QR + SVD reference"
        if kind.startswith("independence"):
            U, V = inputs
            want = checks.reference_corr_sq(U.values, V.values)[0]
            got = result.diagnostics["top_corr_sq"]
            table = self.tables["laguerre" if kind.endswith("small") else "airy"]
            threshold = table.threshold_for(checks.ALPHA)
            reject = result.statistic_value > threshold
        elif kind == "coint_small":
            X = inputs.X
            want = 1000 / 2.0 * math.log1p(-checks.reference_corr_sq(np.diff(X, axis=1), X[:, :-1])[0])
            got = result.statistic_value
            threshold = -0.5 * self.tables["brownian"].threshold_for(checks.ALPHA)
            reject = got < threshold
        else:
            d = result.diagnostics
            lam = checks.reference_corr_sq(*checks.detrended_panels(inputs.X))
            want = (math.log1p(-lam[0]) - d["c1"]) / (100 ** (-2.0 / 3.0) * d["c2"])
            got = result.statistic_value
            threshold = self.tables["airy"].threshold_for(checks.ALPHA)
            reject = got > threshold
        if not checks.close(got, want, 1e-7):
            return f"{kind}: statistic input {got} differs from the reference {want}"
        if result.threshold != threshold or result.rejected != reject:
            return f"{kind}: threshold or decision disagrees with the table"
        return None

    def final_problems(self) -> list[str]:
        """Sizes in their binomial bands, power replicates detecting their signal."""
        out = [checks.f1_threshold_problem(self.tables["airy"].threshold_for(checks.ALPHA), STUDY_NSAMPLES["airy"])]
        table_n = {"independence_small": "laguerre", "coint_small": "brownian"}
        for kind in ("independence_small", "coint_small", "independence_large", "coint_large"):
            if self.reps[kind]:
                n = STUDY_NSAMPLES[table_n.get(kind, "airy")]
                out.append(checks.size_problem(kind, self.rejections[kind], self.reps[kind], n))
        if self.reps["coint_power"] and self.rejections["coint_power"] < self.reps["coint_power"]:
            out.append(f"coint_power: rejected {self.rejections['coint_power']} of {self.reps['coint_power']}")
        if self.reps["spike_power"]:
            rate = self.rejections["spike_power"] / self.reps["spike_power"]
            z = spike.z_from_rho2(SPIKE_RHO2, self.params)
            s_u, _ = spike.predicted_angles(SPIKE_RHO2, self.params)
            if rate < MIN_SPIKE_DETECTION:
                out.append(f"spike_power: detected in {rate:.2f} of reps, expected at least {MIN_SPIKE_DETECTION}")
            # Criterion 6's tolerances, widened for the run's replicate count.
            out.append(checks.median_problem("spike_power outlier", self.spike_tops, z, 0.02))
            out.append(checks.median_problem("spike_power angle", self.spike_angles, s_u, 0.05))
        return [p for p in out if p]
