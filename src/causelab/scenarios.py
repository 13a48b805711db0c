"""Named synthetic data generators with embedded ground truth.

Each scenario wraps a fully specified SCM: generated CSVs expose only
the observable columns, while the companion ground-truth dictionary
records the generating graph, latent variables, true effects or
directions, and (where needed) realized latent series, so downstream
tests never have to re-derive truths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The CLI imports this module on first use, perhaps while another module's
# functions are wrapped in place (as a tracer does), so functions are
# called through their modules and never bound here by name.
from . import cgm as cgm_mod
from . import graph as graph_mod
from . import scm as scm_mod
from .data import Dataset
from .errors import UsageError
from .scm import (
    BinOp,
    Const,
    FiniteNoise,
    GaussianNoise,
    IndicatorGe,
    Mechanism,
    NoiseRef,
    Scm,
    Table,
    Unary,
    UniformNoise,
    Var,
)


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    scm: Scm
    observed: tuple[str, ...]
    params: dict
    truth: dict
    reveal: tuple[str, ...] = field(default=())

    def generate(self, n: int, seed: int) -> tuple[Dataset, dict]:
        full = scm_mod.sample(self.scm, n, seed)
        data = full.subset(self.observed)
        truth = {
            "scenario": self.name,
            "n": n,
            "seed": seed,
            "params": dict(self.params),
            **self.truth,
        }
        if self.reveal:
            truth["series"] = {
                c: [float(v) for v in full.column(c)] for c in self.reveal
            }
        return data, truth


def _add(*terms):
    expr = terms[0]
    for t in terms[1:]:
        expr = BinOp("+", expr, t)
    return expr


def _scaled(coef: float, name: str):
    return BinOp("*", Const(coef), Var(name))


def _binary_table(parents, parent_domains, probs, levels=20):
    """Tabular mechanism: child = 1 with the given probability per row.

    Probabilities must be multiples of 1/levels so the finite-noise
    representation (and hence the CGM bridge) is exact.
    """
    noise = FiniteNoise(
        values=tuple(float(u) for u in range(levels)),
        probs=tuple(1.0 / levels for _ in range(levels)),
    )
    values = []
    import itertools

    for config in itertools.product(*parent_domains):
        p = probs[config]
        cut = p * levels
        if abs(cut - round(cut)) > 1e-9:
            raise UsageError(f"probability {p} is not a multiple of 1/{levels}")
        values.extend(1.0 if u < round(cut) else 0.0 for u in range(levels))
    expr = Table(
        inputs=tuple(Var(p) for p in parents) + (NoiseRef(),),
        domains=tuple(tuple(float(v) for v in d) for d in parent_domains)
        + ((tuple(float(u) for u in range(levels))),),
        values=tuple(values),
    )
    return Mechanism(tuple(parents), expr), noise


def make_genes_confounded() -> Scenario:
    """Two genes equally correlated with a phenotype; only one is a cause.

    Gene A drives the phenotype directly; gene B merely shares the
    latent common cause H, so knocking B out leaves the phenotype alone.
    """
    w = 1.5
    scm = Scm(
        variables=("H", "A", "B", "Y"),
        mechanisms={
            "H": Mechanism((), NoiseRef()),
            "A": Mechanism((), NoiseRef()),
            "B": Mechanism(("H",), _add(Var("H"), NoiseRef())),
            "Y": Mechanism(
                ("A", "H"), _add(_scaled(w, "A"), _scaled(w, "H"), NoiseRef())
            ),
        },
        noises={
            "H": GaussianNoise(1.0, 0.25),
            "A": GaussianNoise(1.0, 0.25),
            "B": GaussianNoise(0.0, 0.01),
            "Y": GaussianNoise(0.0, 0.01),
        },
    )
    return Scenario(
        name="genes-confounded",
        scm=scm,
        observed=("A", "B", "Y"),
        params={"weight": w},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "latent": ["H"],
            "baseline_mean_Y": 3.0,
            "knockout_A_mean_Y": 1.5,
            "knockout_B_mean_Y": 3.0,
        },
    )


def make_simpson_reversal() -> Scenario:
    """Positive per-stratum effect whose aggregate contrast flips sign."""
    effect, confound = 1.0, -10.0
    scm = Scm(
        variables=("Z", "T", "Y"),
        mechanisms={
            "Z": Mechanism((), IndicatorGe(NoiseRef(), 0.5)),
            "T": Mechanism(
                ("Z",),
                IndicatorGe(
                    BinOp("-", _add(Const(0.1), _scaled(0.8, "Z")), NoiseRef()), 0.0
                ),
            ),
            "Y": Mechanism(
                ("T", "Z"),
                _add(_scaled(effect, "T"), _scaled(confound, "Z"), NoiseRef()),
            ),
        },
        noises={
            "Z": UniformNoise(0.0, 1.0),
            "T": UniformNoise(0.0, 1.0),
            "Y": GaussianNoise(0.0, 1.0),
        },
    )
    return Scenario(
        name="simpson-reversal",
        scm=scm,
        observed=("Z", "T", "Y"),
        params={"effect": effect, "confound": confound},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "true_ate": effect,
            "adjustment_set": ["Z"],
            "aggregate_sign": -1,
        },
    )


def make_faithfulness_violation(beta: float = -0.5) -> Scenario:
    """Linear chain-plus-direct-edge system with path cancellation.

    With beta + alpha*gamma = 0 the first and last variables are
    marginally independent despite being graphically connected.
    """
    alpha, gamma = 1.0, 0.5
    scm = Scm(
        variables=("X1", "X2", "X3"),
        mechanisms={
            "X1": Mechanism((), NoiseRef()),
            "X2": Mechanism(("X1",), _add(_scaled(alpha, "X1"), NoiseRef())),
            "X3": Mechanism(
                ("X1", "X2"),
                _add(_scaled(beta, "X1"), _scaled(gamma, "X2"), NoiseRef()),
            ),
        },
        noises={
            "X1": GaussianNoise(0.0, 1.0),
            "X2": GaussianNoise(0.0, 1.0),
            "X3": GaussianNoise(0.0, 1.0),
        },
    )
    cancel = beta + alpha * gamma
    return Scenario(
        name="faithfulness-violation",
        scm=scm,
        observed=("X1", "X2", "X3"),
        params={"alpha": alpha, "beta": beta, "gamma": gamma},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "beta_plus_alpha_gamma": cancel,
            "marginally_independent_pair": ["X1", "X3"] if cancel == 0 else None,
        },
    )


def make_frontdoor() -> Scenario:
    """Hidden confounder between treatment and outcome, observed mediator."""
    mech_h, noise_h = _binary_table((), (), {(): 0.5})
    mech_t, noise_t = _binary_table(("H",), ((0, 1),), {(0,): 0.3, (1,): 0.8})
    mech_m, noise_m = _binary_table(("T",), ((0, 1),), {(0,): 0.2, (1,): 0.9})
    mech_y, noise_y = _binary_table(
        ("M", "H"),
        ((0, 1), (0, 1)),
        {(0, 0): 0.1, (0, 1): 0.5, (1, 0): 0.6, (1, 1): 0.9},
    )
    scm = Scm(
        variables=("H", "T", "M", "Y"),
        mechanisms={"H": mech_h, "T": mech_t, "M": mech_m, "Y": mech_y},
        noises={"H": noise_h, "T": noise_t, "M": noise_m, "Y": noise_y},
    )
    cgm = cgm_mod.cgm_from_scm(scm)
    means = {}
    for tval in (0.0, 1.0):
        p_y = cgm_mod.interventional_marginal(cgm, "Y", {"T": tval})
        means[tval] = float(p_y[1])  # Y binary: mean = p(Y=1)
    from .cgm import cgm_to_json

    return Scenario(
        name="frontdoor",
        scm=scm,
        observed=("T", "M", "Y"),
        params={},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "latent": ["H"],
            "true_ate": means[1.0] - means[0.0],
            "do_means": {"0": means[0.0], "1": means[1.0]},
            "cgm_with_latent": cgm_to_json(cgm),
        },
    )


def make_iv_linear(a=1.0, b=1.0, c=1.0, d=2.0) -> Scenario:
    """Linear instrument setting with a hidden confounder of strength b, c."""
    scm = Scm(
        variables=("I", "H", "T", "Y"),
        mechanisms={
            "I": Mechanism((), NoiseRef()),
            "H": Mechanism((), NoiseRef()),
            "T": Mechanism(
                ("I", "H"), _add(_scaled(a, "I"), _scaled(b, "H"), NoiseRef())
            ),
            "Y": Mechanism(
                ("H", "T"), _add(_scaled(c, "H"), _scaled(d, "T"), NoiseRef())
            ),
        },
        noises={name: GaussianNoise(0.0, 1.0) for name in ("I", "H", "T", "Y")},
    )
    naive = (d * (a * a + b * b + 1.0) + b * c) / (a * a + b * b + 1.0)
    return Scenario(
        name="iv-linear",
        scm=scm,
        observed=("I", "T", "Y"),
        params={"a": a, "b": b, "c": c, "d": d},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "latent": ["H"],
            "true_ate": d,
            "naive_ols_slope": naive,
        },
    )


def make_halfsibling(n_siblings: int = 10) -> Scenario:
    """Shared-systematics denoising: target = signal + f(latent Q)."""
    from .scm import DiracNoise

    sib_names = tuple(f"X{j}" for j in range(1, n_siblings + 1))
    mechanisms = {
        "Q": Mechanism((), NoiseRef()),
        "Sig": Mechanism((), NoiseRef()),
        # deterministic given signal and systematics; Dirac noise unused
        "Y": Mechanism(("Sig", "Q"), _add(Var("Sig"), _scaled(2.0, "Q"))),
    }
    noises = {
        "Q": GaussianNoise(0.0, 1.0),
        "Sig": GaussianNoise(0.0, 1.0),
        "Y": DiracNoise(0.0),
    }
    for j, name in enumerate(sib_names, start=1):
        coef = 0.5 + 0.1 * j
        mechanisms[name] = Mechanism(
            ("Q",), _add(_scaled(coef, "Q"), BinOp("*", Const(0.1), NoiseRef()))
        )
        noises[name] = GaussianNoise(0.0, 1.0)
    variables = ("Q", "Sig", "Y") + sib_names
    scm = Scm(variables=variables, mechanisms=mechanisms, noises=noises)
    return Scenario(
        name="halfsibling",
        scm=scm,
        observed=("Y",) + sib_names,
        params={"n_siblings": n_siblings, "systematics_coef": 2.0},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "latent": ["Q", "Sig"],
            "signal_column": "Sig",
        },
        reveal=("Sig",),
    )


def make_anm_nonlinear() -> Scenario:
    """Nonlinear cause-effect pair identifiable from the noise asymmetry."""
    scm = Scm(
        variables=("X", "Y"),
        mechanisms={
            "X": Mechanism((), NoiseRef()),
            "Y": Mechanism(
                ("X",), _add(Unary("cube", Var("X")), Var("X"), NoiseRef())
            ),
        },
        noises={
            "X": UniformNoise(-1.0, 1.0),
            "Y": UniformNoise(-0.2, 0.2),
        },
    )
    return Scenario(
        name="anm-nonlinear",
        scm=scm,
        observed=("X", "Y"),
        params={},
        truth={
            "graph": graph_mod.dag_to_json(scm_mod.induced_graph(scm)),
            "direction": "forward",
            "cause": "X",
            "effect": "Y",
        },
    )


SCENARIOS = {
    "genes-confounded": make_genes_confounded,
    "simpson-reversal": make_simpson_reversal,
    "faithfulness-violation": make_faithfulness_violation,
    "frontdoor": make_frontdoor,
    "iv-linear": make_iv_linear,
    "halfsibling": make_halfsibling,
    "anm-nonlinear": make_anm_nonlinear,
}


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise UsageError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]()
