"""Dwelling-stock ingestion: categories, records, CSV round-trip and outlier clipping.

The stock table has one row per (LSOA, dwelling category) with a dwelling
count, average annual heat demands before/after energy efficiency measures
(kWh/year per dwelling) and average floor area (m2 per dwelling).

The stock is held as columns, one numpy array per field, in a `StockTable`:
`load_stock` turns each block of CSV rows into arrays before it reads the
next and checks whole columns at once; `winsorize_stock` clips per category
with array expressions. A `DwellingRecord` is one row, as iterating a
table hands it out. Invalid rows are reported for the first row that
fails, with the message a row-by-row reader would give, from that row's
cells read again from the file. `read_rows` reads every CSV file the package
reads: the stock, the regions table, the LSOA lookup and the CSV exports.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, islice
from json import dumps as _json_dumps  # a float as repr spells it, nan and inf as json does
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, DomainError, DuplicateRecordError, ParseError, SchemaError


class DwellingForm(Enum):
    DETACHED = "detached"
    SEMI_DETACHED = "semi_detached"
    TERRACED = "terraced"
    FLAT = "flat"


class HeatingSystem(Enum):
    GAS_BOILER = "gas_boiler"
    RESISTANCE_HEATER = "resistance_heater"
    BIOMASS_BOILER = "biomass_boiler"
    OIL_BOILER = "oil_boiler"


_FORM_ALIASES = {
    "detached": DwellingForm.DETACHED,
    "semi_detached": DwellingForm.SEMI_DETACHED,
    "semi-detached": DwellingForm.SEMI_DETACHED,
    "semidetached": DwellingForm.SEMI_DETACHED,
    "terraced": DwellingForm.TERRACED,
    "flat": DwellingForm.FLAT,
}

_HEATING_ALIASES = {
    "gas_boiler": HeatingSystem.GAS_BOILER,
    "gas boiler": HeatingSystem.GAS_BOILER,
    "gas": HeatingSystem.GAS_BOILER,
    "resistance_heater": HeatingSystem.RESISTANCE_HEATER,
    "resistance heater": HeatingSystem.RESISTANCE_HEATER,
    "resistance": HeatingSystem.RESISTANCE_HEATER,
    "biomass_boiler": HeatingSystem.BIOMASS_BOILER,
    "biomass boiler": HeatingSystem.BIOMASS_BOILER,
    "biomass": HeatingSystem.BIOMASS_BOILER,
    "oil_boiler": HeatingSystem.OIL_BOILER,
    "oil boiler": HeatingSystem.OIL_BOILER,
    "oil": HeatingSystem.OIL_BOILER,
}


@dataclass(frozen=True, order=True)
class DwellingCategory:
    """One of the 16 combinations of dwelling form and incumbent heating system."""

    form: DwellingForm
    heating: HeatingSystem

    @staticmethod
    def all() -> tuple["DwellingCategory", ...]:
        return tuple(
            DwellingCategory(f, h) for f in DwellingForm for h in HeatingSystem
        )

    @staticmethod
    def parse(form: str, heating: str) -> "DwellingCategory":
        f = _FORM_ALIASES.get(form.strip().lower())
        h = _HEATING_ALIASES.get(heating.strip().lower())
        if f is None:
            raise ParseError(f"unknown dwelling form {form!r}")
        if h is None:
            raise ParseError(f"unknown heating system {heating!r}")
        return DwellingCategory(f, h)

    def label(self) -> str:
        return f"{self.form.value}/{self.heating.value}"


CATEGORIES = DwellingCategory.all()  # a table's category_code indexes this tuple
CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}
_BLOCK = 1024  # rows load_stock holds as strings at a time; larger blocks raise its peak

# Record invariants in the order they are checked: (violated(count, before,
# after, floor_area), message). The expressions hold for scalars and for
# columns alike, so DwellingRecord checks one row and load_stock whole
# columns with the same rules; zero-count rows are exempt from all but the first.
_INVARIANTS = (
    (lambda n, b, a, f: n < 0, "{lsoa}: negative dwelling count {count}"),
    (lambda n, b, a, f: (n > 0) & (b <= 0), "{key}: heat demand (before) must be > 0"),
    (lambda n, b, a, f: (n > 0) & (a <= 0), "{key}: heat demand (after) must be > 0"),
    (lambda n, b, a, f: (n > 0) & (a > b),
     "{key}: heat demand after efficiency measures exceeds the demand before them"),
    (lambda n, b, a, f: (n > 0) & (f <= 0), "{key}: floor area must be > 0"),
)


def _check_record(lsoa_id, category, count, before, after, floor_area) -> None:
    """Raise DataValidationError for the first invariant one row violates."""
    for violated, message in _INVARIANTS:
        if violated(count, before, after, floor_area):
            raise DataValidationError(message.format(
                lsoa=lsoa_id, key=f"{lsoa_id}/{category.label()}", count=count))


@dataclass(frozen=True)
class DwellingRecord:
    """One (LSOA, category) row of the stock dataset.

    Heat demands are kWh/year per dwelling; floor area is m2 per dwelling.
    Rows with count == 0 are legal placeholders and carry no physics.
    """

    lsoa_id: str
    category: DwellingCategory
    count: int
    annual_heat_demand_before: float
    annual_heat_demand_after: float
    floor_area: float

    def __post_init__(self) -> None:
        _check_record(self.lsoa_id, self.category, self.count, self.annual_heat_demand_before,
                      self.annual_heat_demand_after, self.floor_area)

    @property
    def skippable(self) -> bool:
        """True for zero-population rows, which downstream stages ignore."""
        return self.count == 0


@dataclass(frozen=True, eq=False)
class StockTable:
    """The stock as parallel columns, one row per (LSOA, category) record, in file order.

    lsoa_code indexes lsoa_ids, the distinct LSOAs in order of first
    appearance, and category_code indexes CATEGORIES. Zero-count rows are
    kept (len counts them); the live rows are those with count > 0.
    Iterating yields the rows as DwellingRecords.
    """

    lsoa_ids: tuple[str, ...]
    lsoa_code: np.ndarray  # intp, index into lsoa_ids
    category_code: np.ndarray  # int8, index into CATEGORIES
    count: np.ndarray  # int64, dwellings
    demand_before: np.ndarray  # kWh/year per dwelling, before efficiency measures
    demand_after: np.ndarray  # kWh/year per dwelling, after them
    floor_area: np.ndarray  # m2 per dwelling

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self) -> Iterator[DwellingRecord]:
        ids = self.lsoa_ids
        for code, category, *values in zip(
            self.lsoa_code.tolist(), self.category_code.tolist(), self.count.tolist(),
            self.demand_before.tolist(), self.demand_after.tolist(), self.floor_area.tolist(),
        ):
            yield DwellingRecord(ids[code], CATEGORIES[category], *values)

    def keys(self, rows: np.ndarray) -> list[tuple[str, int]]:
        """(LSOA id, category code) of each of the given rows."""
        return list(zip(map(self.lsoa_ids.__getitem__, self.lsoa_code[rows].tolist()),
                        self.category_code[rows].tolist()))

    @staticmethod
    def from_records(records: Iterable[DwellingRecord]) -> "StockTable":
        lsoas: dict[str, int] = {}
        rows = [(lsoas.setdefault(r.lsoa_id, len(lsoas)), CATEGORY_CODE[r.category], r.count,
                 r.annual_heat_demand_before, r.annual_heat_demand_after, r.floor_area)
                for r in records]
        code, category, count, *values = zip(*rows) if rows else [()] * 6
        return StockTable(tuple(lsoas), np.array(code, np.intp), np.array(category, np.int8),
                          np.array(count, np.int64), *(np.array(v, float) for v in values))


# Logical field -> default CSV column name. A schema mapping passed to
# load_stock/write_stock overrides individual entries.
DEFAULT_STOCK_SCHEMA: dict[str, str] = {
    "lsoa_id": "lsoa_id",
    "form": "form",
    "heating": "heating",
    "count": "count",
    "annual_heat_demand_before": "heat_demand_before_kwh",
    "annual_heat_demand_after": "heat_demand_after_kwh",
    "floor_area": "floor_area_m2",
}


def _resolve_schema(schema: Mapping[str, str] | None) -> dict[str, str]:
    resolved = dict(DEFAULT_STOCK_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_STOCK_SCHEMA)
        if unknown:
            raise SchemaError(f"unknown schema field(s): {', '.join(sorted(unknown))}")
        resolved.update(schema)
    return resolved


def load_stock(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> StockTable:
    """Parse a stock CSV into a StockTable, preserving row order.

    Raises SchemaError for missing columns, ParseError (with the 1-based data
    row number) for bad or non-finite cells, DataValidationError for a row
    that breaks a record invariant and DuplicateRecordError for a repeated
    (lsoa_id, category) key. Rows are parsed _BLOCK at a time and whole columns
    checked at once; the error is the one a row-by-row reader would raise at
    the first row that fails, whose cells are read again from the file.
    """
    cols = _resolve_schema(schema)
    lsoas: dict[str, int] = {}
    categories: dict[tuple[str, str], int] = {}  # raw (form, heating) cells -> code, -1 if unknown
    blocks = [(np.empty(0, np.intp), np.empty(0, np.int8), *[np.empty(0)] * 4)]  # an empty block
    rows = read_rows(path, cols.values())
    while block := list(islice(rows, _BLOCK)):
        ids, forms, heatings, *numbers = zip(*block)
        pairs = list(zip(forms, heatings))
        categories.update((p, _category_code(*p)) for p in set(pairs) - categories.keys())
        blocks.append((
            np.array([lsoas.setdefault(i.strip(), len(lsoas)) for i in ids], np.intp),
            np.array([categories[p] for p in pairs], np.int8), *map(_parse_column, numbers)))
    lsoa_code, category_code, count, before, after, area = map(np.concatenate, zip(*blocks))
    del blocks  # the checks below need room for their temporaries
    bad = (category_code < 0) | ~_is_count(count)
    for column in (before, after, area):
        bad |= ~np.isfinite(column)
    for violated, _ in _INVARIANTS:
        bad |= violated(count, before, after, area)
    _, first = np.unique(lsoa_code * len(CATEGORIES) + category_code, return_index=True)
    duplicate = np.ones(len(bad), dtype=bool)
    duplicate[first] = False
    if (bad | duplicate).any():
        i = int(np.argmax(bad | duplicate))
        lsoa_id, *cells = next(islice(read_rows(path, cols.values()), i, None))
        raise _row_error(f"{path}: row {i + 1}: ", lsoa_id.strip(), *cells)
    return StockTable(tuple(lsoas), lsoa_code, category_code, count.astype(np.int64),
                      before, after, area)


def read_rows(path: str | Path, columns: Collection[str]) -> Iterator[tuple[str, ...]]:
    """Each data row's cells under the named header columns, in that order, from
    the UTF-8 CSV at path: every CSV file heatflex reads is read here. A blank
    line is no row, a missing cell reads "", extra cells are ignored and of a
    repeated header name the last column counts. A missing column is a
    SchemaError, and a malformed file (a stray quote that runs a cell past the
    csv module's field limit, say, or bytes that are not UTF-8) a ParseError,
    each naming path."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, [])
            if missing := [c for c in columns if c not in header]:
                raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
            position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
            at = [position[c] for c in columns]
            pick = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            width = max(at) + 1
            for row in filter(None, reader):
                yield pick(row if len(row) >= width else row + [""] * (width - len(row)))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: malformed CSV: {exc}") from None


def _category_code(form: str, heating: str) -> int:
    try:
        return CATEGORY_CODE[DwellingCategory.parse(form, heating)]
    except ParseError:
        return -1


def _number(cell: str) -> float:
    """float(cell), or nan for a cell that is not a number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _parse_column(cells: list[str]) -> np.ndarray:
    try:
        return np.array(cells, dtype=float)  # numpy parses each cell as float() does
    except ValueError:
        return np.array([_number(c) for c in cells], dtype=float)


def _is_count(values):
    """True where a value is an integer that fits a dwelling count column (int64)."""
    return np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) < 2.0**63)


def _row_error(prefix, lsoa_id, form, heating, count, *cells) -> DataValidationError:
    """The error a row-by-row reader raises at a row the column checks marked bad."""
    try:
        category = DwellingCategory.parse(form, heating)
        if not _is_count(_number(count)):
            raise ParseError(f"expected an integer, got {count!r}")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"expected a number, got {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"expected a finite number, got {cell!r}")
        _check_record(lsoa_id, category, int(_number(count)), *map(float, cells))
    except DataValidationError as exc:  # ParseError included
        return type(exc)(prefix + str(exc))
    return DuplicateRecordError(f"{prefix}duplicate record for ({lsoa_id}, {category.label()})")


# Rows float_text writes at a time: with 16,384 the export raised the national run's
# peak RSS from the aggregate stage's 67.2 MB to 70.0 MB, with 4,096 to 67.5 MB.
_TEXT_ROWS = 4096


def float_text(columns: Sequence[np.ndarray], json: bool = False) -> Iterator[bytes | memoryview]:
    """The rows of equal-length float64 columns, _TEXT_ROWS rows at a time, as
    orjson writes a (rows, k) block of them with every number spelled as repr
    spells it: compact without the block's brackets (1.0,2.0],[3.0,4.0), or
    as json.dumps(indent=2) lays the rows out four lists deep."""
    import orjson  # deferred: loaded after a run's evaluate and aggregate peaks, it adds to neither
    option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 if json else 0)
    for start in range(0, len(columns[0]), _TEXT_ROWS):
        block = np.stack([c[start:start + _TEXT_ROWS] for c in columns], axis=1)
        # orjson spells a float as repr does only for ±0.0 and 1e-4 <= |x| < 1e16;
        # it writes null for the others once they are nan, and repr or json fills them in
        size = np.abs(block)
        other = ~((1e-4 <= size) & (size < 1e16)) & (block != 0)  # nan and ±inf too
        spelled = tuple((_json_dumps if json else repr)(v).encode() for v in block[other].tolist())
        block[other] = np.nan
        text = orjson.dumps([[[block]]] if json else block, option=option)
        if spelled:  # null comes from no number, and % from none, so each is a nan in row order
            text = text.replace(b"null", b"%s") % spelled
        # [[[block]]] puts the rows at json's depth; a view drops the four lists uncopied
        yield memoryview(text)[19:-20] if json else text[2:-2]


def _csv_cells(values: Iterable[str]) -> list[bytes]:
    """Each value as csv.writer writes it as one of several fields, with the
    comma after it, in UTF-8. csv.writer quotes a cell holding \r or \n only
    if its terminator holds them, so the cells are written ending \r\n and the
    terminator dropped: every text cell heatflex writes reads back whole."""
    buf = io.StringIO()  # writerow returns the characters it wrote
    ends = [0, *accumulate(csv.writer(buf, lineterminator="\r\n").writerow([v, ""]) for v in values)]
    text = buf.getvalue()
    return [text[a:b - 2].encode() for a, b in zip(ends, ends[1:])]


def _write_rows(fh, stock: StockTable, rows: Sequence[int], columns: Sequence[np.ndarray]) -> None:
    """Write the stock's rows to fh as lsoa_id,form,heating,count and each row's
    floats in columns: the bytes csv.writer writes with repr."""
    lsoa = _csv_cells(stock.lsoa_ids)
    category = [f"{c.form.value},{c.heating.value},".encode() for c in CATEGORIES]
    for start, text in zip(range(0, len(rows), _TEXT_ROWS), float_text(columns)):
        block = rows[start:start + _TEXT_ROWS]
        fh.write(b"".join(b"%s%s%d,%s\n" % line for line in zip(
            map(lsoa.__getitem__, stock.lsoa_code[block].tolist()),
            map(category.__getitem__, stock.category_code[block].tolist()),
            stock.count[block].tolist(), text.split(b"],["))))


def write_stock(
    stock: StockTable,
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> None:
    """Write a stock in the load_stock format (load . write is an identity)."""
    cols = _resolve_schema(schema)
    with open(path, "wb") as fh:
        fh.write(b"".join(_csv_cells(cols[f] for f in DEFAULT_STOCK_SCHEMA))[:-1] + b"\n")
        _write_rows(fh, stock, range(len(stock)),
                    (stock.demand_before, stock.demand_after, stock.floor_area))


def winsorize_stock(
    stock: StockTable,
    lower_pct: float = 0.01,
    upper_pct: float = 0.99,
) -> StockTable:
    """Clip outliers per dwelling category across all LSOAs.

    For each category and each of the heat-demand/floor-area columns, values
    beyond the lower/upper percentile (linear interpolation between order
    statistics, one record = one sample) are replaced by the percentile value.
    Counts and row order are unchanged. Zero-count rows neither contribute
    to the percentile estimate nor get clipped. Categories with fewer than two
    contributing records pass through with a warning.
    """
    if not 0 <= lower_pct < upper_pct <= 1:
        raise DomainError(
            f"invalid percentile bounds ({lower_pct}, {upper_pct}); need 0 <= lo < hi <= 1"
        )
    live = stock.count > 0
    columns = {f: getattr(stock, f).copy() for f in ("demand_before", "demand_after", "floor_area")}
    present, first = np.unique(stock.category_code[live], return_index=True)
    for code in present[np.argsort(first)].tolist():  # in order of first appearance
        rows = np.flatnonzero(live & (stock.category_code == code))
        if len(rows) < 2:
            warnings.warn(
                f"category {CATEGORIES[code].label()}: {len(rows)} record(s), "
                f"outlier clipping skipped",
                stacklevel=2,
            )
            continue
        for values in columns.values():
            lo, hi = np.percentile(values[rows], [lower_pct * 100, upper_pct * 100])
            values[rows] = np.minimum(np.maximum(values[rows], lo), hi)
    return replace(stock, **columns)
