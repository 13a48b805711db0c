"""Immutable columnar datasets.

Columns are float64 arrays tagged with a kind: "real", "binary"
(values in {0,1}) or "categorical" (small set of integral codes).
Missing and infinite values are not supported.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import UsageError

_CATEGORICAL_MAX_LEVELS = 20


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write UTF-8 text through a temporary file renamed over path."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def infer_kind(values: np.ndarray) -> str:
    uniq = np.unique(values)
    if uniq.size <= 2 and np.all(np.isin(uniq, (0.0, 1.0))):
        return "binary"
    if np.all(uniq == np.round(uniq)) and uniq.size <= _CATEGORICAL_MAX_LEVELS:
        return "categorical"
    return "real"


@dataclass(frozen=True, eq=False)
class Dataset:
    columns: tuple[str, ...]
    kinds: dict[str, str]
    _data: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        lengths = {arr.shape[0] for arr in self._data.values()}
        if len(lengths) > 1:
            raise UsageError(f"unequal column lengths: {sorted(lengths)}")
        for name in self.columns:
            arr = self._data[name]
            if not np.isfinite(arr).all():
                raise UsageError(f"column {name!r} contains missing or infinite values")
            if self.kinds[name] == "binary" and not np.all(np.isin(arr, (0.0, 1.0))):
                raise UsageError(f"binary column {name!r} has values outside {{0,1}}")
            arr.setflags(write=False)

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Sequence[float] | np.ndarray],
        kinds: Mapping[str, str] | None = None,
    ) -> "Dataset":
        arrays = {k: np.asarray(v, dtype=float).copy() for k, v in data.items()}
        names = tuple(data.keys())
        resolved = {
            k: (kinds[k] if kinds and k in kinds else infer_kind(arrays[k]))
            for k in names
        }
        return cls(columns=names, kinds=resolved, _data=arrays)

    @property
    def n(self) -> int:
        if not self.columns:
            return 0
        return self._data[self.columns[0]].shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise UsageError(f"unknown column {name!r}")
        return self._data[name]

    def matrix(self, names: Iterable[str]) -> np.ndarray:
        cols = [self.column(n) for n in names]
        if not cols:
            return np.empty((self.n, 0))
        return np.column_stack(cols)

    def subset(self, names: Sequence[str]) -> "Dataset":
        return Dataset.from_columns(
            {n: self.column(n) for n in names},
            kinds={n: self.kinds[n] for n in names},
        )

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write atomically: comma-separated, header row, UTF-8, repr floats."""
        write_atomic(path, self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        integral = {
            name: self.kinds[name] in ("binary", "categorical") for name in self.columns
        }
        cols = [self._data[name] for name in self.columns]
        for row in range(self.n):
            writer.writerow(
                [
                    str(int(col[row])) if integral[name] else repr(float(col[row]))
                    for name, col in zip(self.columns, cols)
                ]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "Dataset":
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                rows = list(reader)
        except OSError as exc:
            raise UsageError(f"cannot read {path!r}: {exc}") from exc
        if not rows:
            raise UsageError(f"{path!r}: empty file, header row required")
        header = rows[0]
        if len(set(header)) != len(header) or any(not h for h in header):
            raise UsageError(f"{path!r}: malformed header {header!r}")
        body = rows[1:]
        parsed = np.empty((len(body), len(header)))
        for r, row in enumerate(body):
            if len(row) != len(header):
                raise UsageError(
                    f"{path!r}: line {r + 2}: expected {len(header)} fields, got {len(row)}"
                )
            for c, cell in enumerate(row):
                try:
                    parsed[r, c] = float(cell)
                except ValueError:
                    raise UsageError(
                        f"{path!r}: line {r + 2}, column {c + 1}: not a number: {cell!r}"
                    ) from None
        return cls.from_columns({name: parsed[:, c] for c, name in enumerate(header)})
