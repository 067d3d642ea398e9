"""Every CSV file heatflex reads goes through one reader, stock.read_rows, and
a malformed input or export is refused as a configuration or data error that
names its file.

The files are those of the 2,000-dwelling `synth --seed 3` stock: the stock,
its lookup, the packaged regions table and a fixed-indoor scenario, plus the
`flex` exports made from them.
"""

import contextlib
import csv
import io
import shutil

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from heatflex import (
    DataValidationError,
    ExportFormat,
    ParseError,
    SchemaError,
    load_region_table,
    load_report,
    load_stock,
)
from heatflex.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from heatflex.regions import default_regions_path

SCENARIO = """\
[scenario]
outdoor_temp = 5.0

[indoor]
model = fixed
temp = 19.0
"""

INPUTS = ("stock.csv", "stock_lookup.csv", "regions.csv", "scenario.ini")


def flex(work, out, *options, **replaced):
    """(exit code, stderr) of main(["flex", ...]) on the workspace's inputs;
    replaced maps an input's name, dots as underscores, to a file read in its place."""
    path = {name: replaced.get(name.replace(".", "_"), work / name) for name in INPUTS}
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["flex", "--stock", str(path["stock.csv"]),
                     "--lookup", str(path["stock_lookup.csv"]),
                     "--regions", str(path["regions.csv"]),
                     "--scenario", str(path["scenario.ini"]),
                     "--direction", "neg", "--out", str(out), *options])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The inputs, and three exports of them: exports/csv and exports/json by
    LSOA, and exports/la by local authority, with the first LSOA in none so
    that it writes unresolved.csv."""
    work = tmp_path_factory.mktemp("malformed")
    assert main(["synth", "--dwellings", "2000", "--seed", "3",
                 "--out", str(work / "stock.csv")]) == EXIT_OK
    shutil.copyfile(default_regions_path(), work / "regions.csv")
    (work / "scenario.ini").write_text(SCENARIO, encoding="utf-8")
    for fmt in ("csv", "json"):
        assert flex(work, work / "exports" / fmt, "--level", "lsoa", "--format", fmt) == (
            EXIT_OK, "")
    lookup = (work / "stock_lookup.csv").read_text(encoding="utf-8").splitlines()
    lookup[1] = lookup[1][:lookup[1].rindex(",") + 1]  # a blank local authority
    blanked = work / "blanked_lookup.csv"
    write_lines(blanked, lookup)
    assert flex(work, work / "exports" / "la", "--level", "la",
                stock_lookup_csv=blanked) == (EXIT_OK, "")
    assert (work / "exports" / "la" / "unresolved.csv").exists()
    return work


# file, where it is in the workspace, a column it must have, and how it is loaded
CSV_FILES = {
    "stock.csv": ("", "floor_area_m2", load_stock),
    "regions.csv": ("", "design_temp_c", load_region_table),
    "stock_lookup.csv": ("", "local_authority", lambda path: load_region_table(None, path)),
    "summary.csv": ("exports/la", "excluded_power_w",
                    lambda path: load_report(path.parent, ExportFormat.CSV)),
    "envelope.csv": ("exports/la", "duration_s",
                     lambda path: load_report(path.parent, ExportFormat.CSV)),
    "unresolved.csv": ("exports/la", "lsoa_id",
                       lambda path: load_report(path.parent, ExportFormat.CSV)),
}


def copy_of(work, tmp_path, name):
    """A copy of the file in tmp_path, with the rest of its export if it is one."""
    source = work / CSV_FILES[name][0] / name
    if CSV_FILES[name][0]:
        shutil.copytree(source.parent, tmp_path, dirs_exist_ok=True)
    else:
        shutil.copyfile(source, tmp_path / name)
    return tmp_path / name


@pytest.mark.parametrize("name", CSV_FILES)
def test_a_missing_column_names_the_file_and_the_column(work, tmp_path, name):
    _, column, load = CSV_FILES[name]
    path = copy_of(work, tmp_path, name)
    load(path)  # the copy loads as it is
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = header.rstrip("\n").split(",")
    cells[cells.index(column)] = column + "_renamed"
    path.write_text(",".join(cells) + "\n" + "".join(rows), encoding="utf-8")
    with pytest.raises(SchemaError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: missing column(s): {column}"


@pytest.mark.parametrize("name", CSV_FILES)
def test_a_csv_error_names_the_file(work, tmp_path, name):
    # a quote opened in front of the first data row runs its cell past the
    # csv module's 131,072-character field limit, where the reader raises
    # csv.Error
    _, _, load = CSV_FILES[name]
    path = copy_of(work, tmp_path, name)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(header + '\n"' + "x" * 131_073 + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: malformed CSV: field larger than field limit (131072)"


@pytest.mark.parametrize("name, code, message", [
    ("stock.csv", EXIT_DATA, "data error: {path}: malformed CSV: "),
    ("stock_lookup.csv", EXIT_DATA, "data error: {path}: malformed CSV: "),
    ("regions.csv", EXIT_DATA, "data error: {path}: malformed CSV: "),
    ("scenario.ini", EXIT_USAGE, "configuration error: {path}: "),
])
def test_bytes_that_are_not_utf8_name_the_file(work, tmp_path, name, code, message):
    path = tmp_path / name
    path.write_bytes((work / name).read_bytes().replace(b"\n", b"\n\xff", 1))
    exit_code, err = flex(work, tmp_path / "out", **{name.replace(".", "_"): path})
    assert exit_code == code
    assert err.startswith("heatflex: " + message.format(path=path) +
                          "'utf-8' codec can't decode byte 0xff in position ")


def test_no_csv_dict_reader(work, monkeypatch):
    # every CSV file is read by read_rows through csv.reader, so these load
    # with csv.DictReader unusable
    def refuse(*args, **kwargs):
        raise AssertionError("csv.DictReader used")

    monkeypatch.setattr(csv, "DictReader", refuse)
    assert len(load_stock(work / "stock.csv")) > 0
    table = load_region_table(None, work / "stock_lookup.csv")
    assert table.region_of("E01000001") == "East"
    report = load_report(work / "exports" / "la", ExportFormat.CSV)
    assert report.unresolved_lsoas == ("E01000001",)


# cells a mutation may write: empty, blank, non-numeric, non-finite, negative,
# out of range, CSV and INI syntax, a section and a total row's key
TOKENS = ("", " ", "x", "nan", "inf", "-1", "0", "1e400", "99999999999999999999", '"', "a,b",
          "=", ":", "[indoor]", "model = fixed", "%(x)s", "__total__", "null", "{", "]", "E01000001")


@st.composite
def one_line_mutation(draw, lines):
    """lines with one line replaced, deleted or duplicated. A replacement is
    another line of the file, a token, arbitrary text, or the line with one
    of its cells (split at a comma, = or :) replaced by a token or text."""
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    text = st.one_of(st.sampled_from(TOKENS),
                     st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12))
    separator = draw(st.sampled_from([",", "=", ":"]))
    cells = lines[i].split(separator)
    j = draw(st.integers(0, len(cells) - 1))
    line = draw(st.one_of(st.sampled_from(lines), text,
                          text.map(lambda cell: separator.join([*cells[:j], cell, *cells[j + 1:]]))))
    return lines[:i] + [line] + lines[i + 1:]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@seed(14)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_input_exits_1_or_2_naming_it(work, data):
    name = data.draw(st.sampled_from(INPUTS))
    lines = (work / name).read_text(encoding="utf-8").splitlines()
    mutated = work / f"mutated_{name}"
    write_lines(mutated, data.draw(one_line_mutation(lines)))
    code, err = flex(work, work / "out", **{name.replace(".", "_"): mutated})
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err
    assert not code or str(mutated) in err


EXPORTS = {"summary.csv": ExportFormat.CSV, "envelope.csv": ExportFormat.CSV,
           "report.json": ExportFormat.JSON}


@seed(14)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_a_mutated_export_loads_or_is_refused_naming_it(work, data):
    name = data.draw(st.sampled_from(sorted(EXPORTS)))
    fmt = EXPORTS[name]
    lines = (work / "exports" / fmt.value / name).read_text(encoding="utf-8").splitlines()
    folder = work / "mutated_export"
    shutil.rmtree(folder, ignore_errors=True)
    shutil.copytree(work / "exports" / fmt.value, folder)
    write_lines(folder / name, data.draw(one_line_mutation(lines)))
    try:
        load_report(folder, fmt)
    except DataValidationError as exc:
        assert str(folder / name) in str(exc)
