"""Untimed checks of every artifact a benchmark call writes.

Each checker returns a list of problems; an empty list means the artifact is
correct.  `run` CSVs are recomputed at spot rows from the numpy-only
references in tests/oracles.py along an independently integrated trajectory,
so agreement is evidence rather than the library checking itself.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json

import numpy as np

from qbattery import DEFAULT_TOLERANCES, reevaluate_witness
from workloads import ROOT

_spec = importlib.util.spec_from_file_location("qbattery_bench_oracles",
                                               ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

# Spot values must match the references to this relative precision.  Both
# sides eigendecompose rho to ~1e-15 * ||rho||; ln(rho) turns that into an
# error of ~1e-15 / lambda_min, and the bundled states keep lambda_min above
# 3e-7, so 1e-7 leaves a margin of more than 10x.
SPOT_RTOL = 1e-7
# The central difference of <F> misses P = d<F>/dt by (h^2 / 6) d^2P/dt^2 to
# leading order; the second difference of the power_analytic column estimates
# h^2 d^2P/dt^2, and 0.25 leaves room over the 1/6 coefficient.
FD_COEFF = 0.25
FD_ATOL = 1e-8

EXPECTED_AUDIT = {
    "qubit_sigma_x": ("HYPOTHESIS_REFUTED", ()),
    "qutrit_ladder": ("HYPOTHESIS_REFUTED", ()),
    "qubit_dark_state": ("MIXED", ("C2", "C3_transposed")),
}


def _matrix(value) -> np.ndarray:
    return np.array([[complex(*v) if isinstance(v, list) else complex(v) for v in row]
                     for row in value], dtype=complex)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= SPOT_RTOL * max(1.0, abs(want))


class RunCheck:
    """Checks a `run` CSV against its config."""

    def __init__(self, config_text: str):
        cfg = json.loads(config_text)
        self.beta = float(cfg.get("beta", 1.0))
        self.h_mat = _matrix(cfg["hamiltonian"])
        self.channels = [(float(ch["rate"]), _matrix(ch["matrix"]))
                         for ch in cfg.get("channels", [])]
        grid = cfg["time"]
        n = round(grid["horizon"] / grid["step"])
        self.times = grid.get("t0", 0.0) + np.linspace(0.0, n * grid["step"], n + 1)
        m = len(self.channels)
        self.columns = (["t", "energy", "entropy", "free_energy", "power_analytic",
                         "power_fd"] + [f"theta_{j + 1}" for j in range(m)]
                        + ["trace_defect", "min_eig"])
        self.rho0 = self._initial_state(cfg["initial_state"])
        self.spots = sorted({0, 1, len(self.times) // 2, len(self.times) - 1})
        self.reference = self._reference_states()

    def _initial_state(self, st: dict) -> np.ndarray:
        d = self.h_mat.shape[0]
        if st["kind"] == "matrix":
            return _matrix(st["matrix"])
        w, u = np.linalg.eigh(self.h_mat)
        if st["kind"] == "thermal":
            p = np.exp(-float(st.get("beta", self.beta)) * (w - w[0]))
            return (u * (p / p.sum())) @ oracles.dag(u)
        v = u[:, st["k0"]]
        rho = np.outer(v, np.conj(v))
        eps = st.get("epsilon")
        return rho if eps is None else (1.0 - eps) * rho + (eps / d) * np.eye(d)

    def _reference_states(self) -> dict[int, np.ndarray]:
        """Classical RK4 with the oracle generator, keeping the spot rows."""
        h = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0
        y = self.rho0
        out = {0: y}
        for i in range(1, len(self.times)):
            k1 = oracles.generator(self.h_mat, self.channels, y)
            k2 = oracles.generator(self.h_mat, self.channels, y + 0.5 * h * k1)
            k3 = oracles.generator(self.h_mat, self.channels, y + 0.5 * h * k2)
            k4 = oracles.generator(self.h_mat, self.channels, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if i in self.spots:
                out[i] = y
        return out

    def _spot(self, row: dict, rho: np.ndarray) -> list[str]:
        f = oracles.free_energy_matrix(rho, self.h_mat, self.beta)
        want = {
            "energy": float(np.trace(rho @ self.h_mat).real),
            "entropy": oracles.entropy(rho),
            "free_energy": float(np.trace(f @ rho).real),
            "power_analytic": float(np.trace(
                oracles.generator(self.h_mat, self.channels, rho) @ f).real),
        }
        for j, (_, l) in enumerate(self.channels):
            want[f"theta_{j + 1}"] = oracles.theta(rho, self.h_mat, self.beta, l)
        return [f"{key} = {row[key]!r}, reference {value!r}"
                for key, value in want.items() if not _close(float(row[key]), value)]

    def __call__(self, data: bytes) -> list[str]:
        reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
        if reader.fieldnames != self.columns:
            return [f"header {reader.fieldnames} != {self.columns}"]
        rows = list(reader)
        n = len(rows)
        if n != len(self.times):
            return [f"{n} rows, config gives {len(self.times)}"]
        problems = []
        for i in self.spots:
            problems += [f"row {i}: {p}" for p in self._spot(rows[i], self.reference[i])]
        power = [float(r["power_analytic"]) for r in rows]
        for i, r in enumerate(rows):
            if abs(float(r["t"]) - self.times[i]) > 1e-12 * max(1.0, abs(self.times[i])):
                problems.append(f"row {i}: t = {r['t']}, grid gives {self.times[i]!r}")
            if float(r["trace_defect"]) > DEFAULT_TOLERANCES.propagation_trace:
                problems.append(f"row {i}: trace_defect {r['trace_defect']}")
            if float(r["min_eig"]) < -DEFAULT_TOLERANCES.propagation_psd:
                problems.append(f"row {i}: min_eig {r['min_eig']}")
            if (r["power_fd"] == "") != (i == 0 or i == n - 1):
                problems.append(f"row {i}: power_fd presence is wrong")
                continue
            if r["power_fd"] == "":
                continue
            window = [abs(power[j + 1] - 2.0 * power[j] + power[j - 1])
                      for j in (i - 1, i, i + 1) if 1 <= j <= n - 2]
            bound = FD_COEFF * max(window) + FD_ATOL * max(1.0, abs(power[i]))
            if abs(float(r["power_fd"]) - power[i]) > bound:
                problems.append(f"row {i}: power_fd {r['power_fd']} misses "
                                f"power_analytic {power[i]!r} by more than {bound:.3e}")
        return problems[:10]


def _report(data: bytes, mode: str) -> dict:
    payload = json.loads(data)
    if payload.get("mode") != mode:
        raise ValueError(f"report mode {payload.get('mode')!r}, expected {mode!r}")
    return payload["report"]


class AuditCheck:
    """The verdict and the violated claims stay as they are today."""

    def __init__(self, scenario: str):
        self.verdict, self.violated = EXPECTED_AUDIT[scenario]

    def __call__(self, data: bytes) -> list[str]:
        report = _report(data, "audit")
        violated = tuple(c["claim_id"] for c in report["claim_verdicts"]
                         if c["status"] == "violated")
        if (report["verdict"], violated) != (self.verdict, self.violated):
            return [f"verdict {report['verdict']} with {violated} violated, "
                    f"expected {self.verdict} with {self.violated}"]
        return []


class SweepCheck:
    """One row per configured epsilon, in order."""

    def __init__(self, config_text: str):
        self.epsilons = [float(e) for e in json.loads(config_text)["epsilons"]]

    def __call__(self, data: bytes) -> list[str]:
        got = [row["epsilon"] for row in _report(data, "sweep")["rows"]]
        return [] if got == self.epsilons else [f"rows for {got}, expected {self.epsilons}"]


class CheckCheck:
    """Byte-identical reports at one seed; every counterexample reproduces."""

    def __init__(self, seed: int, trials: int):
        self.seed = seed
        self.trials = trials
        self.first: bytes | None = None

    def __call__(self, data: bytes) -> list[str]:
        if self.first is not None:
            return [] if data == self.first else ["report differs from the first at this seed"]
        payload = json.loads(data)
        report = _report(data, "check")
        problems = []
        if payload["seed"] != self.seed or report["trials"] != self.trials:
            problems.append(f"seed {payload['seed']} / trials {report['trials']} not echoed")
        for record in report["counterexamples"]:
            inst = reevaluate_witness(record)
            recomputed = {
                "theta_values": list(inst.theta_values),
                "theta_transposed": list(inst.theta_transposed),
                "power_trace": [inst.power_trace],
                "power_index": [inst.power_index],
            }
            for key, values in recomputed.items():
                stored = record[key] if isinstance(record[key], list) else [record[key]]
                if len(stored) != len(values) or any(
                        abs(a - b) > 1e-12 for a, b in zip(stored, values)):
                    problems.append(f"{record['label']}: {key} does not reproduce")
            violated = sorted(c for c, o in inst.outcomes(DEFAULT_TOLERANCES).items()
                              if o == "counterexample")
            if inst.condition_holds != record["condition_holds"] \
                    or violated != record["violates"]:
                problems.append(f"{record['label']}: verdicts do not reproduce")
        if not problems:
            self.first = data
        return problems


def instances(data: bytes) -> int:
    """Claim instances a `check` report evaluated."""
    return int(_report(data, "check")["claim_verdicts"][0]["counts"]["instances"])


def rows(data: bytes) -> int:
    """Data rows of a `run` CSV."""
    return max(data.count(b"\n") - 1, 0)
