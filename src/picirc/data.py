"""CSV-backed datasets with per-column family schemas.

CSV is the single data interchange format: a header row names the
columns, every cell is a decimal number, and an empty cell marks a
marginalized (missing) value.  A schema declares each column's family:
``categorical:K`` (support 0..K-1), ``binomial:K`` (K trials, support
0..K), or ``gaussian`` (any finite real).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .circuit import FAMILIES, in_support, param_width
from .errors import SchemaError


def parse_family(text: str) -> tuple[str, int | None]:
    """One column descriptor: 'categorical:4', 'binomial:10', 'gaussian'."""
    name, sep, arg = text.strip().partition(":")
    if name not in FAMILIES:
        raise SchemaError(f"unknown column family {name!r} (expected one of {', '.join(FAMILIES)})")
    if name == "gaussian":
        if sep:
            raise SchemaError("gaussian columns take no state count")
        return name, None
    if not sep or not arg.isdigit() or int(arg) < 1:
        raise SchemaError(f"{name} needs a positive state count, e.g. {name}:4")
    return name, int(arg)


@dataclass
class Dataset:
    """Row-major value matrix plus per-column family declarations.

    ``values`` is float64 with NaN for marginalized cells.  Training and
    validation data come from separate files, so a dataset carries no
    split.
    """

    columns: list[str]
    families: list[tuple[str, int | None]]
    values: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_cols(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        if self.values.ndim != 2:
            raise SchemaError("dataset values must be a 2-D matrix")
        if len(self.columns) != self.num_cols or len(self.families) != self.num_cols:
            raise SchemaError("columns, families, and value width must agree")
        for j, (family, k) in enumerate(self.families):
            try:
                param_width(family, k)
            except ValueError as e:
                raise SchemaError(f"column {self.columns[j]!r}: {e}") from None
            col = self.values[:, j]
            bad = np.flatnonzero(~(np.isnan(col) | in_support(family, k, col)))
            if bad.size:
                r = bad[0]
                detail = "" if family == "gaussian" else f" (valid range 0..{k - 1 if family == 'categorical' else k})"
                raise SchemaError(
                    f"row {r}, column {self.columns[j]!r}: value {col[r]:g} outside {family}"
                    f"{f'({k})' if k else ''} support{detail}"
                )


def _broadcast_schema(schema, width: int) -> list[tuple[str, int | None]]:
    if isinstance(schema, str):
        return [parse_family(schema)] * width
    families = [parse_family(s) if isinstance(s, str) else tuple(s) for s in schema]
    if len(families) != width:
        raise SchemaError(f"schema lists {len(families)} columns, file has {width}")
    return families


def load_csv(path, schema) -> Dataset:
    """Parse and validate a CSV file against a schema.

    ``schema`` is one descriptor string applied to every column, or a
    sequence with one descriptor per column.  Empty cells become NaN.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        width = len(header)
        rows = []
        for r, cells in enumerate(reader):
            if len(cells) != width:
                raise SchemaError(f"{path}: row {r} has {len(cells)} fields, header has {width}")
            try:
                rows.append([np.nan if c.strip() == "" else float(c) for c in cells])
            except ValueError as e:
                raise SchemaError(f"{path}: row {r}: {e}") from None
    values = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    dataset = Dataset(columns=header, families=_broadcast_schema(schema, width), values=values)
    dataset.validate()
    return dataset


def save_csv(dataset: Dataset, path) -> None:
    """Full-precision CSV that reloads to bit-identical values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.columns)
        for row in dataset.values:
            writer.writerow(["" if np.isnan(v) else repr(float(v)) for v in row])

