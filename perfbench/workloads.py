"""Seeded inputs and job lists of the certbound benchmark.

``make_jobs(workload, seed, workdir)`` writes the workload's model files into
``workdir`` and returns its fixed list of CLI jobs.  The same seed always
gives the same files and arguments.  Seed 0 reproduces the configurations
the repository publishes (the acceptance tests and the README); other seeds
jitter model parameters in ways that keep the amount of BnB work close to
that of seed 0, so that run-to-run spread measures the program rather than
the inputs:

* traffic: the maximum density ``rho_m`` moves by 10%, which leaves the work
  alone, since the gradient terms depend on ``delta * rho_c = v_f / (2
  seg_len)`` only; the free-flow speed and the ramp ratio move by 0.2%
  (by 1% they move ``evals`` by 0.3% and ``cert_rel_width`` by 2%);
* continuum maximize: ``a = b = k`` keeps the maximizer hyperbola at
  ``x*y = 1/2``, and ``eps_h`` scales with the maximum ``k / 4``;
* moving object: the radius stays at 5, since its evaluation count moves
  by up to 6% when the radius moves by 1% (3743 at 5.05, 4047 at 4.95,
  3823 at 5);
* generator: only the constants and bounds that no certified constant depends
  on move (the rotor angle stays as published, inside ``[-pi, pi]``); a move
  of 0.5% in any other flips its loose-tolerance BnB between two stopping
  points, which moves the workload's ``cert_rel_width`` by 7%.

The model files are written here, not by ``certbound make-model``, so that
the inputs stay the same when a later commit changes how the program renders
models.  For seed 0 they are byte-identical to the ``make-model`` output.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("joint-lipschitz", "many-subproblems", "continuum-maximize", "kinks-and-trig")

# Reference values at seed 0, each with the tolerance of the job that
# produces it: four-decimal references are checked to half a unit in the
# fourth decimal, objective values to the job's eps_h.
REF_S5_CASE1 = 0.4579
REF_GAMMA_LOWER = -150.0
REF_GAMMA_M = 25000.0
REF_JACOBIAN = 0.0626


@dataclass(frozen=True)
class Ref:
    """A seed-0 reference: the rows whose name starts with ``prefix``, reduced
    by ``kind`` (``value``, ``max_value`` or ``min_lower``), must lie within
    ``tol`` of ``expected``."""

    prefix: str
    kind: str
    expected: float
    tol: float


@dataclass(frozen=True)
class Exact:
    """The exact value of row ``row``, or of its square when ``squared``:
    the certified side must not fall below it, the witness side must not
    exceed it."""

    row: str
    value: Fraction
    squared: bool = False


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m certbound.cli <argv> --format json
    --no-timing``."""

    name: str
    argv: tuple[str, ...]
    fingerprint: str  # expected report model_fingerprint
    rows: tuple[str, ...]  # row names the report must carry
    model: str | None = None  # model file, for the set-up probe and baseline
    lipschitz: bool = False  # value must dominate the halton baseline
    exact: Exact | None = None  # a value the report must bracket
    refs: tuple[Ref, ...] = field(default_factory=tuple)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jitter(rng: random.Random, x: float, rel: float) -> float:
    """``x`` moved by a uniform relative amount in [-rel, rel], kept to four
    significant digits so that the model text stays short."""
    return float(f"{x * (1.0 + rng.uniform(-rel, rel)):.4g}")


def traffic_text(sections: int, v_f: float, rho_m: float, seg_len: float, alpha: float) -> str:
    """The free-flow highway model of ``certbound.models.build_traffic``,
    rendered as ``certbound make-model traffic`` renders it."""
    delta = v_f / (seg_len * rho_m)
    rho_c = rho_m / 2.0
    d = repr(delta)
    n = 6 * sections + 1
    f = [f"{d}*sqr(x1)"]
    prev = 1
    for section in range(sections):
        base = 1 + 6 * section
        m1, m2, m3, m4, r_on, r_off = range(base + 1, base + 7)
        f.append(f"{d}*(sqr(x{m1}) - sqr(x{prev}))")
        f.append(f"{d}*(sqr(x{m2}) - sqr(x{m1}) + {alpha!r}*sqr(x{r_on}))")
        f.append(f"{d}*(sqr(x{m3}) - sqr(x{m2}) - sqr(x{r_off}))")
        f.append(f"{d}*(sqr(x{m4}) - sqr(x{m3}))")
        f.append(f"{d}*sqr(x{r_on})")
        f.append(f"{-delta * alpha!r}*sqr(x{r_off})")
        prev = m4
    lines = ["[states]"]
    lines += [f"x{i} = [0.0, {rho_c!r}]" for i in range(1, n + 1)]
    lines.append("[f]")
    lines += [f"f{i} = {text}" for i, text in enumerate(f, start=1)]
    return "\n".join(lines) + "\n"


def moving_object_text(r: float) -> str:
    """The planar moving object of ``certbound.models.build_moving_object``."""
    return (
        "[states]\n"
        f"x1 = [{-r!r}, {r!r}]\n"
        f"x2 = [{-r!r}, {r!r}]\n"
        "[f]\n"
        "f1 = -x1*(sqr(x1) + sqr(x2))\n"
        "f2 = -x2*(sqr(x1) + sqr(x2))\n"
    )


def generator_text(alphas: tuple[float, ...], states, inputs) -> str:
    """The generator of ``certbound.models.build_generator`` with its
    constants folded in, as ``certbound make-model generator`` renders it."""
    a1, a3, a4, a6, a8, a10 = alphas
    lines = ["[states]"]
    lines += [f"x{i} = [{lo!r}, {hi!r}]" for i, (lo, hi) in enumerate(states, start=1)]
    lines.append("[inputs]")
    lines += [f"u{i} = [{lo!r}, {hi!r}]" for i, (lo, hi) in enumerate(inputs, start=1)]
    lines += [
        "[f]",
        f"f1 = {-a1!r}",
        f"f2 = {a3!r}*x4*u4*cos(x1) - {a3!r}*x3*u4*sin(x1) - {a3!r}*x4*u3*sin(x1)"
        f" - {a3!r}*x3*u3*cos(x1) + {a4!r}*u3*u4*cos(2.0*x1)"
        f" + {0.5 * a4!r}*(u4^2 - u3^2)*sin(2.0*x1) + {a6!r}",
        f"f3 = {a8!r}*u4*cos(x1) - {a8!r}*u3*sin(x1)",
        f"f4 = {a10!r}*u3*cos(x1) + {a10!r}*u4*sin(x1)",
    ]
    return "\n".join(lines) + "\n"


# The generator configuration of the acceptance tests.
GEN_ALPHAS = (0.3, 1.2, 0.7, 0.15, 2.1, 1.4)
GEN_STATES = ((-0.6, 2.2), (-1.0, 1.0), (0.2, 1.1), (-0.4, 0.9))
GEN_INPUTS = ((0.0, 1.0), (0.0, 1.0), (-1.5, 2.0), (-1.0, 1.6))


def _write(workdir: str, name: str, text: str) -> tuple[str, str]:
    path = os.path.join(workdir, name)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, sha256(data)


def traffic_lipschitz_sq(sections: int, v_f: float, rho_m: float, seg_len: float, alpha: float) -> Fraction:
    """The exact squared Lipschitz constant of ``traffic_text(...)``, for the
    constants as the file states them.  Every partial derivative is
    ``2 * c * x_j`` with ``x_j`` in ``[0, rho_c]``, so the summed squared
    gradient norms, and each component's alone, peak at the corner
    ``x = rho_c``.  Case 1 and case 2 have this same exact value."""
    delta = v_f / (seg_len * rho_m)
    d, a, r = Fraction(delta), Fraction(alpha), Fraction(rho_m / 2.0)
    neg_da = Fraction(-delta * alpha)  # the file's rounded off-ramp constant
    unit = (2 * d * r) ** 2
    # Per section: ten derivatives with coefficient +-d, one d*alpha (on-ramp
    # feed) and one -delta*alpha (off-ramp drain); plus the source's one.
    return unit * (1 + 10 * sections) + sections * (2 * r) ** 2 * ((d * a) ** 2 + neg_da**2)


def _traffic(rng: random.Random | None, sections: int, workdir: str) -> tuple[str, str, Fraction]:
    v_f, rho_m, seg_len, alpha = 31.3, 0.053, 500.0, 0.5
    if rng is not None:
        rho_m = _jitter(rng, rho_m, 0.1)
        v_f = _jitter(rng, v_f, 0.002)
        alpha = _jitter(rng, alpha, 0.002)
    params = (sections, v_f, rho_m, seg_len, alpha)
    path, fp = _write(workdir, f"traffic_s{sections}.nds", traffic_text(*params))
    return path, fp, traffic_lipschitz_sq(*params)


def _joint_lipschitz(rng, workdir):
    path, fp, lip_sq = _traffic(rng, 5, workdir)
    refs = () if rng is not None else (Ref("gamma_l1", "value", REF_S5_CASE1, 5e-5),)
    return [
        Job("lipschitz-case1-s5", ("lipschitz", "--case", "1", "--model", path), fp,
            ("gamma_l1",), model=path, lipschitz=True, exact=Exact("gamma_l1", lip_sq, squared=True),
            refs=refs),
    ]


def _many_subproblems(rng, workdir):
    path, fp, lip_sq = _traffic(rng, 20, workdir)
    refs = () if rng is not None else (
        Ref("df", "max_value", REF_JACOBIAN, 5e-5),
        Ref("df", "min_lower", -REF_JACOBIAN, 5e-5),
    )
    return [
        Job("jacobian-s20", ("jacobian", "--model", path), fp, ("df1/dx1",), model=path, refs=refs),
        Job("qb-s20", ("qb", "--model", path), fp, ("Gamma_11",), model=path),
        Job("lipschitz-case2-s20", ("lipschitz", "--case", "2", "--model", path), fp,
            ("gamma_l2",), model=path, lipschitz=True, exact=Exact("gamma_l2", lip_sq, squared=True)),
    ]


def _continuum_maximize(rng, workdir):
    k = 1.0 if rng is None else round(rng.uniform(0.5, 2.0), 3)
    expr = f"{k!r}*x*y - {k!r}*x*x*y*y"
    bounds = "x=[0,2];y=[0,2]"
    eps_h = 5e-3 * k
    fp = sha256(f"{expr}|{bounds}".encode())
    return [
        Job("maximize-hyperbola",
            ("maximize", "--expr", expr, "--bounds", bounds, "--segments", "1", "--eps-h", repr(eps_h)),
            fp, ("max",), exact=Exact("max", Fraction(k) / 4)),
    ]


def _kinks_and_trig(rng, workdir):
    alphas, states, inputs = GEN_ALPHAS, GEN_STATES, GEN_INPUTS
    if rng is not None:
        # Only what the generator's constants do not depend on moves: the
        # constant f1 = -a1, the offset a6, and the bounds of x2, u1 and u2,
        # which no component reads.
        a1, a3, a4, a6, a8, a10 = alphas
        alphas = (_jitter(rng, a1, 0.5), a3, a4, _jitter(rng, a6, 0.5), a8, a10)
        x2 = _jitter(rng, 1.0, 0.5)
        states = (states[0], (-x2, x2), states[2], states[3])
        inputs = ((0.0, _jitter(rng, 1.0, 0.5)), (0.0, _jitter(rng, 1.0, 0.5)), inputs[2], inputs[3])
    mo, mo_fp = _write(workdir, "moving_object.nds", moving_object_text(5.0))
    gen, gen_fp = _write(workdir, "generator.nds", generator_text(alphas, states, inputs))
    loose = ("--eps-h", "10", "--eps-om", "1e-3", "--segments", "2")
    osl_refs = () if rng is not None else (Ref("gamma_lower", "value", REF_GAMMA_LOWER, 1e-4),)
    qib_refs = () if rng is not None else (Ref("gamma_m", "value", REF_GAMMA_M, 1e-4),)
    return [
        Job("osl-zeta-moving-object", ("osl", "--estimator", "zeta", "--model", mo), mo_fp,
            ("gamma_s", "gamma_lower"), model=mo, refs=osl_refs),
        Job("qib-moving-object", ("qib", "--eps1", "1e4", "--eps2", "0.1", "--model", mo), mo_fp,
            ("gamma_q1", "gamma_m"), model=mo, refs=qib_refs),
        Job("osl-gershgorin-generator", ("osl", "--estimator", "gershgorin", "--model", gen, *loose),
            gen_fp, ("gamma_s", "gamma_lower"), model=gen),
        Job("osl-zeta-generator", ("osl", "--estimator", "zeta", "--model", gen, *loose),
            gen_fp, ("gamma_s", "gamma_lower"), model=gen),
    ]


_BUILDERS = {
    "joint-lipschitz": _joint_lipschitz,
    "many-subproblems": _many_subproblems,
    "continuum-maximize": _continuum_maximize,
    "kinks-and-trig": _kinks_and_trig,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir`` and
    return its job list."""
    rng = None if seed == 0 else random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, workdir)
