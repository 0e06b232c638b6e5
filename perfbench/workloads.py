"""The workloads: which CLI requests each issues and how each answer
is checked.

A workload turns a seed into an endless, deterministic stream of requests
(scenario files are written lazily, outside the timed region) and judges
every answer.  A request fails when its exit code is neither 0 nor 3, its
report does not parse, or a workload-specific invariant breaks; a zero rate
or exit 3 (decoy estimation infeasible) is a valid answer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

from scipy.special import gammainc, gammaincc

from . import scenarios

CHERNOFF_APPLICATIONS = 13
NETWORK_HEADER = "node_a,node_b,total_km,delta_deg,rate,plob,ratio"

MC_THREADS = min(2, os.cpu_count() or 1)

# Two-sided tail mass beyond |z| = 4 under the normal approximation.
Z4_TAIL = math.erfc(4.0 / math.sqrt(2.0))


@dataclass
class Request:
    argv: list[str]
    info: dict = field(default_factory=dict)


@dataclass
class Answer:
    code: int
    stdout: str
    stderr: str
    seconds: float


class Workload:
    """Base class: request stream, per-answer checks, run statistics."""

    name = ""

    def __init__(self, seed: int, inputs_dir: str) -> None:
        self.seed = seed
        self.inputs_dir = inputs_dir
        self.failures: list[str] = []

    def _write(self, filename: str, doc: dict) -> str:
        path = os.path.join(self.inputs_dir, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(scenarios.dumps(doc))
        return path

    def requests(self):
        raise NotImplementedError

    def fail(self, request: Request, reason: str) -> None:
        self.failures.append(f"{' '.join(request.argv)}: {reason}")

    def check(self, request: Request, answer: Answer) -> bool:
        """Judge one answer; returns False (and records why) on failure."""
        before = len(self.failures)
        if answer.code not in (0, 3):
            self.fail(request, f"exit code {answer.code}: {answer.stderr.strip()[-300:]}")
        elif answer.code == 0:
            try:
                self.check_output(request, answer.stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.fail(request, f"unreadable output: {exc!r}")
        else:
            self.check_infeasible(request)
        return len(self.failures) == before

    def check_output(self, request: Request, stdout: str) -> None:
        raise NotImplementedError

    def check_infeasible(self, request: Request) -> None:
        pass

    def properties(self) -> dict:
        """Input properties and workload-specific quality figures."""
        return {}


def _finite_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


class KeyrateLinks(Workload):
    name = "keyrate_links"

    def __init__(self, seed: int, inputs_dir: str) -> None:
        super().__init__(seed, inputs_dir)
        self.finite_rate: dict[int, float] = {}
        self.finite_answers = 0
        self.zero_rate = 0
        self.infeasible = 0

    def requests(self):
        for index in itertools.count():
            doc, asymptotic = scenarios.keyrate_link(self.seed, index)
            path = self._write(f"link_{index:06d}.json", doc)
            argv = ["keyrate", "--config", path, "--threads", "1"]
            yield Request(argv, {"link": index, "asymptotic": False})
            if asymptotic:
                yield Request(argv + ["--asymptotic"], {"link": index, "asymptotic": True})

    def check_output(self, request: Request, stdout: str) -> None:
        results = json.loads(stdout)["results"]
        rate = _finite_number(results["rate"])
        if rate < 0.0:
            self.fail(request, f"negative rate {rate}")
        link = request.info["link"]
        if not request.info["asymptotic"]:
            self.finite_answers += 1
            self.zero_rate += rate == 0.0
            self.finite_rate[link] = rate
            if results["chernoff_applications"] != CHERNOFF_APPLICATIONS:
                self.fail(request, f"chernoff_applications {results['chernoff_applications']}")
        elif rate < self.finite_rate.get(link, 0.0):
            self.fail(request, f"asymptotic rate {rate} below finite {self.finite_rate[link]}")

    def check_infeasible(self, request: Request) -> None:
        link = request.info["link"]
        if not request.info["asymptotic"]:
            self.finite_answers += 1
            self.infeasible += 1
            self.finite_rate[link] = 0.0
        elif self.finite_rate.get(link, 0.0) > 0.0:
            self.fail(request, "asymptotic mode infeasible where finite mode has a key")

    def properties(self) -> dict:
        n = max(self.finite_answers, 1)
        return {
            "links": self.finite_answers,
            "zero_rate_share": self.zero_rate / n,
            "infeasible_share": self.infeasible / n,
        }


def _poisson_two_sided(observed: float, expected: float) -> float:
    """Two-sided tail probability of an observed count under Poisson(expected)."""
    k = round(observed)
    if expected <= 0.0:
        return 1.0 if k == 0 else 0.0
    if k >= expected:
        tail = gammainc(k, expected) if k > 0 else 1.0  # P(X >= k)
    else:
        tail = gammaincc(k + 1, expected)  # P(X <= k)
    return min(1.0, 2.0 * float(tail))


class MonteCarlo(Workload):
    def __init__(self, seed: int, inputs_dir: str, name: str) -> None:
        super().__init__(seed, inputs_dir)
        self.name = name
        self.rounds = 0
        self.clicks = 0

    def requests(self):
        for index in itertools.count():
            doc = scenarios.montecarlo_request(self.name, self.seed, index)
            path = self._write(f"mc_{index:04d}.json", doc)
            argv = ["montecarlo", "--config", path, "--threads", str(MC_THREADS)]
            yield Request(argv, {"rounds": doc["montecarlo"]["rounds"]})

    def check_output(self, request: Request, stdout: str) -> None:
        results = json.loads(stdout)["results"]
        rows = results["comparison"]
        # The report's z = (obs - exp)/sqrt(exp) misreads small Poisson
        # counts (an expected 0.03 observed once gives z = 5.6), so each row
        # is judged by its exact Poisson tail instead.  m_x counts two events
        # per error pair.  The request fails when a row is less likely than
        # |z| > 4 is for one normal variable, over all rows of the report.
        threshold = Z4_TAIL / max(len(rows), 1)
        for row in rows:
            scale = 2.0 if row["name"] == "m_x" else 1.0
            observed = _finite_number(row["observed"]) / scale
            expected = _finite_number(row["expected"]) / scale
            p = _poisson_two_sided(observed, expected)
            if p < threshold:
                self.fail(request, f"{row['name']}: observed {row['observed']}, expected "
                          f"{row['expected']:.6g}, z {row['z']:.2f}, tail {p:.3g}")
        bounds = results["decoy_bounds"]
        if bounds["feasible"] and not bounds["ordering_ok"]:
            self.fail(request, "decoy bounds above the simulated truths")
        self.rounds += int(results["rounds"])
        self.clicks += sum(int(v) for v in results["tally"]["clicks"].values())

    def properties(self) -> dict:
        return {"click_share": self.clicks / self.rounds if self.rounds else 0.0}


WORKLOADS = ("keyrate_links", "mc_dense", "mc_sparse")


def make(name: str, seed: int, inputs_dir: str) -> Workload:
    if name == "keyrate_links":
        return KeyrateLinks(seed, inputs_dir)
    if name in ("mc_dense", "mc_sparse"):
        return MonteCarlo(seed, inputs_dir, name)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# untimed reference check: the shipped four-user network at 5 degrees drift

NETWORK_CONFIG = os.path.join("configs", "network_four_users.json")

# Published pair table (bits per pulse): finite-key rate at N = 1e11 and the
# repeaterless bound of the pair's total fiber length.
PAPER_SIGMA5 = {
    ("A", "B"): (1.743e-6, 2.537e-7),
    ("A", "C"): (8.631e-6, 5.300e-6),
    ("A", "D"): (6.063e-6, 1.695e-6),
    ("B", "C"): (8.456e-6, 5.300e-6),
    ("B", "D"): (6.701e-6, 1.695e-6),
    ("C", "D"): (1.754e-5, 3.542e-5),
}
# The acceptance suite's tolerance on the published rates.
PAPER_RATE_TOLERANCE = 0.10

# Rates this package computes for the same table (first benchmarked
# version); later versions must keep them to 4 significant figures.
GOLDEN_SIGMA5 = {
    ("A", "B"): 1.67493498082e-06,
    ("A", "C"): 7.96167211318e-06,
    ("A", "D"): 5.58407161306e-06,
    ("B", "C"): 7.81596775738e-06,
    ("B", "D"): 6.18139314972e-06,
    ("C", "D"): 1.64790699086e-05,
}
FOUR_FIGURES = 5e-4


def network_request(root: str) -> Request:
    return Request(["network", "--config", os.path.join(root, NETWORK_CONFIG), "--threads", "1"])


def check_network(answer: Answer) -> list[str]:
    """Failures of the four-user reference table, empty when it holds."""
    if answer.code != 0:
        return [f"network exit code {answer.code}: {answer.stderr.strip()[-300:]}"]
    lines = answer.stdout.splitlines()
    if not lines or lines[0] != NETWORK_HEADER:
        return ["network CSV header mismatch"]
    failures = []
    seen = set()
    for line in lines[1:]:
        node_a, node_b, *values = line.split(",")
        pair = tuple(sorted((node_a, node_b)))
        seen.add(pair)
        rate, plob = float(values[2]), float(values[3])
        if pair not in PAPER_SIGMA5:
            failures.append(f"network: unexpected pair {pair}")
            continue
        paper_rate, paper_plob = PAPER_SIGMA5[pair]
        if f"{plob:.4g}" != f"{paper_plob:.4g}":
            failures.append(f"network {pair}: plob {plob:.4g} != published {paper_plob:.4g}")
        if abs(rate - paper_rate) > PAPER_RATE_TOLERANCE * paper_rate:
            failures.append(f"network {pair}: rate {rate:.4g} not within 10% of published {paper_rate:.4g}")
        if abs(rate - GOLDEN_SIGMA5[pair]) > FOUR_FIGURES * GOLDEN_SIGMA5[pair]:
            failures.append(f"network {pair}: rate {rate:.6g} moved from {GOLDEN_SIGMA5[pair]:.6g}")
    if seen != set(PAPER_SIGMA5):
        failures.append(f"network: pairs {sorted(seen)} do not match the reference table")
    return failures
