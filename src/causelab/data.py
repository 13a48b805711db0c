"""Immutable columnar datasets.

Columns are float64 arrays tagged with a kind: "real", "binary"
(values in {0,1}) or "categorical" (small set of integral codes).
Missing and infinite values are not supported.

CSV files are written and read a block of rows at a time, and the
writer formats each column of a block as a whole, so neither direction
holds the file as per-row lists or per-cell strings. A read block that is not plain (a carriage
return, a wrong comma count, or a cell float() rejects, such as a
quoted or empty one) hands the rest of the file to csv.reader, which
gives the cells, values and error messages it always gave.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import UsageError

_CATEGORICAL_MAX_LEVELS = 20
_BLOCK_ROWS = 8192  # rows formatted per write block, and parsed per csv.reader chunk
_READ_HINT = 1 << 16  # characters of whole lines per read block (readlines hint)


def write_atomic(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write UTF-8 text, or its pieces in order, through a temporary file
    renamed over path."""
    directory = os.path.dirname(os.fspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {os.fspath(path)!r}: {exc.strerror}") from None
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
            if self.kinds[name] == "categorical" and not np.all(arr == np.round(arr)):
                raise UsageError(f"categorical column {name!r} has non-integral values")
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
        write_atomic(path, self._csv_pieces())

    def to_csv_text(self) -> str:
        return "".join(self._csv_pieces())

    def _csv_pieces(self) -> Iterator[str]:
        """The header line, then the lines of each block of rows as one string."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(self.columns)
        yield buf.getvalue()
        integral = [self.kinds[name] in ("binary", "categorical") for name in self.columns]
        for start in range(0, self.n, _BLOCK_ROWS):
            cells = []
            for name, whole in zip(self.columns, integral):
                values = self._data[name][start : start + _BLOCK_ROWS].tolist()
                cells.append(map(str, map(int, values)) if whole else map(repr, values))
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "Dataset":
        try:
            with open(path, encoding="utf-8-sig", newline="") as fh:
                header, parsed = _read_csv(fh, path)
        except OSError as exc:
            raise UsageError(f"cannot read {path!r}: {exc}") from exc
        except UnicodeDecodeError:
            raise UsageError(f"{path!r}: {_first_undecodable(path)}") from None
        return cls.from_columns({name: parsed[:, c] for c, name in enumerate(header)})


def _read_csv(fh, path) -> tuple[list[str], np.ndarray]:
    """Header and rows×columns floats of an open CSV file."""
    header = next(_csv_rows(fh, 1, path), None)
    if header is None:
        raise UsageError(f"{path!r}: empty file, header row required")
    if len(set(header)) != len(header) or any(not h for h in header):
        raise UsageError(f"{path!r}: malformed header {header!r}")
    width, line, blocks = len(header), 2, []
    while lines := fh.readlines(_READ_HINT):
        block = _parse_plain(lines, width)
        if block is None:
            rows = _csv_rows(itertools.chain(lines, fh), line, path)
            while chunk := list(itertools.islice(rows, _BLOCK_ROWS)):
                blocks.append(_parse_rows(chunk, width, line, path))
                line += len(chunk)
            break
        blocks.append(block)
        line += len(lines)
    return header, np.concatenate(blocks) if blocks else np.empty((0, width))


def _csv_rows(lines: Iterable[str], first_line: int, path) -> Iterator[list[str]]:
    """csv.reader rows of lines that start at line first_line of the file;
    a csv.Error, such as a field over csv.field_size_limit(), names its line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise UsageError(f"{path!r}: line {first_line + reader.line_num - 1}: {exc}") from None


def _parse_plain(lines: list[str], width: int) -> np.ndarray | None:
    """Floats of lines that csv.reader would split at every comma, else None.

    readlines ends a line at CRLF, CR or LF, and csv.reader drops the
    ending. The CR of a CRLF trails the line's last cell, and float()
    ignores it as it ignores other surrounding whitespace; a lone CR
    falls back. csv.reader splits a line with no quote at every comma.
    float() rejects every cell that holds a quote, so a block whose lines
    all have width - 1 commas and whose cells all parse is exactly width
    cells a row.
    """
    text = "".join(lines)
    commas = set(map(str.count, lines, itertools.repeat(",")))
    if commas != {width - 1} or "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    return np.array(values).reshape(len(lines), width)


def _parse_rows(rows: list[list[str]], width: int, first_line: int, path) -> np.ndarray:
    """Floats of csv.reader rows, failing on the first bad row or cell."""
    parsed = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise UsageError(
                f"{path!r}: line {first_line + r}: expected {width} fields, got {len(row)}"
            )
        for c, cell in enumerate(row):
            try:
                parsed[r, c] = float(cell)
            except ValueError:
                raise UsageError(
                    f"{path!r}: line {first_line + r}, column {c + 1}: not a number: {cell!r}"
                ) from None
    return parsed


def _first_undecodable(path) -> str:
    """Where the file at path first fails to decode as UTF-8, read again."""
    try:
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
    except OSError:
        pass
    return "not UTF-8"
