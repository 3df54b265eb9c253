"""Seeded inputs, operations and output oracles of the four benchmark workloads.

Inputs are drawn from the paper's domain: alpha in (0.01, 1], rho
log-uniform in [0.1, 10], xi in [0, 3] with one draw in five exactly 0, and
Phi in [0, 2 pi].  Each
workload is a sequence of rounds; a round is a fixed list of operations, so
every run times the same mix however many rounds fit in its time.

Every operation goes through the public ``eprfw`` functions by module
attribute (``transport.transport_from_connection``, ``epr.bell_report``,
``cli.bell_rows`` ...), so a traced run can time each layer by rebinding those
attributes, and takes an optional ``connection_fn`` that reaches
``transport_from_connection`` unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import random
from typing import Callable, NamedTuple

from eprfw import cli, epr, geometry, transport, verify
from eprfw.geometry import StringGeometry
from eprfw.kinematics import CircularWorldline

WORKLOADS = ("transport_dense", "bell_sweep", "point_queries", "verify")

DENSE_STEPS = 16384
DENSE_POINTS = 8
SWEEP_POINTS = 10_000
QUERIES = 1000
QUERY_MAX_STEPS = 256

# Tolerances the repository already enforces for the same comparisons.
SPIN_TOL = 1e-10     # numeric spin-half transport vs closed form
DIRAC_TOL = 1e-8     # right chiral block of the Dirac transport vs closed form
BELL_TOL = 1e-12     # norm^2 identity (relative) and chsh_direct = chsh_closed / norm^2

# Check name -> check function, in ``run_checks`` order.  Every function's
# defaults are the ones ``run_checks`` passes.
VERIFY_CHECKS = {
    "tetrad_identities": "check_tetrad_identities",
    "connection_component_tables": "check_connection_tables",
    "connection_antisymmetry_raised": "check_connection_antisymmetry",
    "christoffel_finite_difference": "check_christoffel_oracle",
    "spin_connection_generic_pipeline": "check_spin_connection_pipeline",
    "riemann_off_axis_flatness": "check_riemann_flatness",
    "holonomy_deficit_full_loop": "check_holonomy_deficit",
    "velocity_norm_and_orthogonality": "check_velocity_normalization",
    "acceleration_covariant_oracle": "check_acceleration_oracle",
    "gamma_matrix_square_identity": "check_gamma_matrix_square",
    "transport_determinant": "check_transport_determinant",
    "closed_form_vs_scaling_squaring": "check_closed_form_vs_expm",
    "numeric_transport_fixed_coefficients": "check_numeric_fixed_coefficients",
    "integrator_convergence_order": "check_integrator_convergence",
    "single_step_vs_dense_product": "check_single_step_vs_dense",
    "dirac_right_block_reduction": "check_dirac_chiral_block",
    "wigner_angle_rest_frame": "check_wigner_rest_frame",
    "pair_evolution_closed_form": "check_pair_evolution_closed_form",
    "pair_evolution_from_connection": "check_pair_evolution_from_connection",
    "chsh_singlet_tsirelson": "check_chsh_singlet",
    "chsh_closed_form_at_theta_zero": "check_chsh_closed_theta_zero",
    "chsh_direct_vs_closed_rest_frame": "check_chsh_rest_frame_equivalence",
    "chsh_restoration_rest_frame": "check_restoration_rest_frame",
    "restoration_residual_boosted": "check_restoration_residual_boosted",
    "chsh_direct_vs_closed_boosted": "check_chsh_normalization_discrepancy",
    "c_scaling_regression": "check_c_scaling_regression",
}


class Op(NamedTuple):
    run: Callable[[], object]
    items: int          # work items the operation completes (steps, rows, calls, checks)
    steps: int          # path-ordered transport steps among them
    check: Callable[[object, "Oracle"], None]


# ------------------------------------------------------------------ inputs


def _domain_point(rng: random.Random) -> tuple[float, float, float, float]:
    alpha = 1.0 - 0.99 * rng.random()
    rho = 10.0 ** rng.uniform(-1.0, 1.0)
    xi = 0.0 if rng.random() < 0.2 else 3.0 * rng.random()
    Phi = 2.0 * math.pi * rng.random()
    return alpha, rho, xi, Phi


def make_inputs(workload: str, seed: int):
    """Plain-data inputs of ``workload``; the same seed gives equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "transport_dense":
        return [_domain_point(rng) for _ in range(DENSE_POINTS)]
    if workload == "bell_sweep":
        alpha, _, xi, Phi = _domain_point(rng)
        var = rng.choice(("alpha", "xi", "phi"))
        start, stop = {
            "alpha": (rng.uniform(0.01, 0.5), rng.uniform(0.5, 1.0)),
            "xi": (0.0, rng.uniform(0.5, 3.0)),
            "phi": (0.0, rng.uniform(math.pi, 2.0 * math.pi)),
        }[var]
        return {"alpha": alpha, "xi": xi, "phi": Phi, "sweep": (var, start, stop, SWEEP_POINTS)}
    if workload == "point_queries":
        # N is log-uniform in [1, QUERY_MAX_STEPS], drawn one per stratum so that
        # the total step count, and with it the run time, hardly depends on the seed.
        half = QUERIES // 2
        queries = []
        for k in range(half):
            alpha, rho, xi, Phi = _domain_point(rng)
            queries.append(("bell", alpha, xi, Phi))
            alpha, rho, xi, Phi = _domain_point(rng)
            log_n = math.log(QUERY_MAX_STEPS) * (k + rng.random()) / half
            queries.append(("transport", alpha, rho, xi, Phi, rng.choice((1, -1)), round(math.exp(log_n))))
        rng.shuffle(queries)
        return queries
    if workload == "verify":
        return None
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ----------------------------------------------------------------- oracles


class Oracle:
    """Counts outputs judged and failed; keeps the transport error and CSV digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_transport_err = 0.0
        self.csv_digests = []
        self.rendered_bytes = 0

    def merge(self, other: "Oracle") -> None:
        """Add the judgements and digests of another phase of the same run."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.csv_digests += other.csv_digests

    def judge(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def spin_half(self, wl: CircularWorldline, Phi: float, op) -> None:
        ref = transport.transport_closed_form(transport.transport_params(wl, Phi))
        err = float(abs(op - ref).max())
        self.max_transport_err = max(self.max_transport_err, err)
        self.judge(err <= SPIN_TOL)

    def dirac(self, wl: CircularWorldline, Phi: float, op) -> None:
        ref = transport.transport_closed_form(transport.transport_params(wl, Phi))
        try:
            block = transport.chiral_block(op, "right")
        except ValueError:
            self.judge(False)
            return
        self.judge(float(abs(block - ref).max()) <= DIRAC_TOL)

    def bell(self, xi: float, theta: float, norm: float, direct: float, closed: float) -> None:
        norm2 = math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cosh(2.0 * xi)
        self.judge(
            abs(norm * norm - norm2) <= BELL_TOL * norm2
            and abs(direct - closed / norm2) <= BELL_TOL
        )

    def bell_csv(self, text: str, rows: list[dict]) -> None:
        """The rendered CSV parses back to exactly the row floats."""
        data = text.encode()
        self.rendered_bytes += len(data)
        self.csv_digests.append(hashlib.sha256(data).hexdigest())
        parsed = list(csv.reader(io.StringIO(text)))
        self.judge(
            parsed[0] == list(cli.BELL_COLUMNS)
            and len(parsed) == len(rows) + 1
            and all(
                [float(x) for x in line] == [row[col] for col in cli.BELL_COLUMNS]
                for line, row in zip(parsed[1:], rows)
            )
        )

    def verify_results(self, results) -> None:
        names = tuple(result.name for result in results)
        self.judge(names == tuple(VERIFY_CHECKS))
        for result in results:
            self.judge(result.passed)


# ------------------------------------------------------------- operations


def _worldline(alpha, rho, xi, direction=1):
    return CircularWorldline(StringGeometry(alpha), rho=rho, xi=xi, direction=direction)


def _transport_op(wl, Phi, steps, representation, connection_fn, items) -> Op:
    def run():
        return transport.transport_from_connection(
            wl, Phi, steps, representation, connection_fn=connection_fn
        )

    if representation == "dirac":
        check = lambda out, oracle: oracle.dirac(wl, Phi, out)  # noqa: E731
    else:
        check = lambda out, oracle: oracle.spin_half(wl, Phi, out)  # noqa: E731
    return Op(run, items, steps, check)


def _bell_query_op(alpha, xi, Phi) -> Op:
    def check(report, oracle):
        oracle.bell(xi, report.theta, report.norm, report.chsh_direct, report.chsh_closed)

    return Op(lambda: epr.bell_report(alpha, xi, Phi), 1, 0, check)


def _sweep_op(cfg) -> Op:
    def run():
        rows = cli.bell_rows(cfg)
        return rows, cli.render_bell(cfg, rows)

    def check(out, oracle):
        rows, text = out
        for row in rows:
            oracle.bell(row["xi"], row["theta"], row["norm"], row["chsh_direct"], row["chsh_closed"])
        oracle.bell_csv(text, rows)

    return Op(run, SWEEP_POINTS, 0, check)


def traced_verify_op(wrap) -> Op:
    """The battery one check at a time, each through ``wrap(frame name, fn)``."""
    checks = [wrap(f"verify.{name}", getattr(verify, fn)) for name, fn in VERIFY_CHECKS.items()]
    return Op(lambda: [check() for check in checks], len(VERIFY_CHECKS), 0,
              lambda results, oracle: oracle.verify_results(results))


def rounds(workload: str, inputs, connection_fn=None):
    """Endless rounds of operations; every round of a workload has the same shape."""
    if workload == "transport_dense":
        for alpha, rho, xi, Phi in itertools.cycle(inputs):
            yield [
                _transport_op(_worldline(alpha, rho, xi, direction), Phi, DENSE_STEPS, representation,
                              connection_fn, items=DENSE_STEPS)
                for direction, representation in ((+1, "spin-half"), (-1, "spin-half"), (+1, "dirac"))
            ]
    elif workload == "bell_sweep":
        cfg = cli.RunConfig(**inputs).validate()
        while True:
            yield [_sweep_op(cfg)]
    elif workload == "point_queries":
        ops = []
        for query in inputs:
            if query[0] == "bell":
                ops.append(_bell_query_op(*query[1:]))
            else:
                alpha, rho, xi, Phi, direction, steps = query[1:]
                ops.append(_transport_op(_worldline(alpha, rho, xi, direction), Phi, steps,
                                         "spin-half", connection_fn, items=1))
        while True:
            yield ops
    elif workload == "verify":
        op = Op(verify.run_checks, len(VERIFY_CHECKS), 0,
                lambda results, oracle: oracle.verify_results(results))
        while True:
            yield [op]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warm_up(workload: str, inputs) -> None:
    """One small call of each kind the workload makes, so lazy set-up is done."""
    if workload == "transport_dense":
        alpha, rho, xi, Phi = inputs[0]
        for representation in ("spin-half", "dirac"):
            transport.transport_from_connection(_worldline(alpha, rho, xi), Phi, 64, representation)
    elif workload == "bell_sweep":
        cfg = cli.RunConfig(**dict(inputs, sweep=inputs["sweep"][:3] + (16,))).validate()
        cli.render_bell(cfg, cli.bell_rows(cfg))
    elif workload == "point_queries":
        ops, kinds = next(rounds(workload, inputs)), [query[0] for query in inputs]
        for kind in ("bell", "transport"):
            ops[kinds.index(kind)].run()
    elif workload == "verify":
        verify.check_chsh_singlet()
        verify.check_numeric_fixed_coefficients(steps=64)


def flipped_connection(geom, pt, accel):
    """Mutation for the self-test: the total connection with omega's sign inverted."""
    return -geometry.spin_connection_at(geom, pt) + geometry.fw_connection_at(geom, pt, accel)


def corrupt_first_row(out):
    """Mutation for the self-test: perturb one Bell row after it is computed."""
    rows, text = out
    rows[0] = dict(rows[0], chsh_direct=rows[0]["chsh_direct"] + 1e-9)
    return rows, text
