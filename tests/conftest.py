import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from causelab.graph import Dag


@pytest.fixture
def rng():
    return np.random.default_rng(20240513)


def random_dag(n: int, rng: np.random.Generator, p: float = 0.4) -> Dag:
    """Random DAG: upper-triangular edges on a shuffled order."""
    order = rng.permutation(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((int(order[i]), int(order[j])))
    return Dag([f"V{k}" for k in range(n)], edges)


def five_column_chain(n: int, seed: int):
    """Linear-Gaussian data over A -> B -> C -> D <- A, with E alone.

    Its covered edge A -> B made greedy score search flip A -> B and B -> A
    forever on most seeds at n = 2,000 and 5,000: the reversal's computed
    gain rounded to a few 1e-12 either way.
    """
    from causelab.data import Dataset

    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    c = rng.normal(size=n)
    d = rng.normal(size=n)
    e = rng.normal(size=n)
    A = a
    B = A + b
    C = B + c
    D = A + C + d
    return Dataset.from_columns({"A": A, "B": B, "C": C, "D": D, "E": e})


FIVE_CHAIN = Dag("ABCDE", [("A", "B"), ("B", "C"), ("A", "D"), ("C", "D")])


def covariate_web_graph() -> Dag:
    """Treatment/outcome graph with three covariates used across suites:
    X1->T, X1->X2, X2->Y, X2->X3, T->Y, T->X3, X3->Y."""
    return Dag(
        ["X1", "X2", "T", "X3", "Y"],
        [
            ("X1", "T"),
            ("X1", "X2"),
            ("X2", "Y"),
            ("X2", "X3"),
            ("T", "Y"),
            ("T", "X3"),
            ("X3", "Y"),
        ],
    )
