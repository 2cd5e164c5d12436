from __future__ import annotations

import csv
import math
from datetime import date, timedelta
from typing import NamedTuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iloscast import ingest
from iloscast.errors import IngestError, SchemaError
from iloscast.ingest import PmColumns, build_schema, merge_to_port_level, read_pm_csv
from iloscast.schema import FeatureSchema

from conftest import port_rows, start_date

HEADER = "network_id,port_id,facility_type,date,pm_name,pm_value\n"


class Rec(NamedTuple):
    """One PM row: what the reference parser returns and the tests build."""

    network_id: str
    port_id: str
    facility_type: str
    day: date
    pm_name: str
    pm_value: float


#: (name table, code array, Rec field) of each string column of PmColumns.
CODED = (
    ("networks", "network", "network_id"),
    ("ports", "port", "port_id"),
    ("facilities", "facility", "facility_type"),
    ("pm_names", "pm", "pm_name"),
)


def to_columns(records) -> PmColumns:
    """The records as PmColumns, name tables in first-seen order."""
    records = list(records)
    fields = {}
    for table, code, attr in CODED:
        index = {}
        codes = [index.setdefault(getattr(r, attr), len(index)) for r in records]
        fields[table] = tuple(index)
        fields[code] = np.array(codes, dtype=np.int64)
    return PmColumns(
        **fields,
        day=np.array([r.day.toordinal() for r in records], dtype=np.int64),
        value=np.array([r.pm_value for r in records], dtype=np.float64),
    )


def to_records(cols: PmColumns) -> list[Rec]:
    """The rows of ``cols`` in order, as records."""
    rows = zip(*(getattr(cols, name).tolist() for name in ("network", "port", "facility", "pm", "day", "value")))
    return [
        Rec(
            cols.networks[network],
            cols.ports[port],
            cols.facilities[facility],
            date.fromordinal(day),
            cols.pm_names[pm],
            value,
        )
        for network, port, facility, pm, day, value in rows
    ]


def write_csv(tmp_path, body: str):
    path = tmp_path / "pm.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_parse_single_line(tmp_path):
    path = write_csv(tmp_path, "net1,p7,OTM,2020-03-01,UAS,3612\n")
    (rec,) = to_records(read_pm_csv(path))
    assert rec == Rec("net1", "p7", "OTM", date(2020, 3, 1), "UAS", 3612.0)


def test_parse_preserves_order_and_count(tmp_path):
    path = write_csv(
        tmp_path,
        "net1,p1,OTM,2020-01-01,QAVG,12.5\n"
        "net1,p1,OTM,2020-01-02,QAVG,12.4\n"
        "net1,p2,ETH,2020-01-01,UAS,0\n",
    )
    records = to_records(read_pm_csv(path))
    assert len(records) == 3
    assert [r.port_id for r in records] == ["p1", "p1", "p2"]


def test_parse_bad_value_names_line(tmp_path):
    path = write_csv(tmp_path, "net1,p1,OTM,2020-01-01,QAVG,abc\n")
    with pytest.raises(IngestError, match=r":2: non-numeric value 'abc'"):
        read_pm_csv(path)


def test_parse_bad_date_names_line(tmp_path):
    path = write_csv(
        tmp_path, "net1,p1,OTM,2020-01-01,QAVG,1\nnet1,p1,OTM,2020-13-01,QAVG,1\n"
    )
    with pytest.raises(IngestError, match=r":3: malformed date"):
        read_pm_csv(path)


def test_parse_rejects_nonfinite_value(tmp_path):
    path = write_csv(tmp_path, "net1,p1,OTM,2020-01-01,QAVG,nan\n")
    with pytest.raises(IngestError, match=r":2:"):
        read_pm_csv(path)


def test_parse_unreadable_file(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        read_pm_csv(tmp_path / "nope.csv")


def rec(pm: str, fac: str = "OTM", day: int = 1, value: float = 1.0, port: str = "p1"):
    return Rec("net1", port, fac, date(2020, 1, day), pm, value)


def test_build_schema_union_and_autoinclude():
    schema = build_schema(to_columns([rec("QAVG"), rec("UAS", fac="ETH")]))
    assert schema.numeric_features == ("HCCS", "QAVG", "UAS")
    assert schema.onehot_features == ("ETH", "OTM")


def test_build_schema_deduplicates():
    schema = build_schema(to_columns([rec("QAVG"), rec("QAVG"), rec("QAVG", day=2)]))
    assert schema.numeric_features.count("QAVG") == 1


def test_build_schema_union_size_bound():
    set_a = [f"A{i}" for i in range(76)]
    set_b = set_a[:42] + [f"B{i}" for i in range(49)]  # overlap 42, size 91
    records = [rec(n) for n in set_a] + [rec(n) for n in set_b]
    schema = build_schema(to_columns(records))
    # 76 + 91 - 42 plus the auto-included label sources
    assert len(schema.numeric_features) == 125 + 2


def test_build_schema_empty_stream():
    with pytest.raises(SchemaError, match="empty"):
        build_schema(to_columns([]))


def test_build_schema_unknown_indicator():
    with pytest.raises(SchemaError, match="indicator"):
        build_schema(to_columns([rec("QAVG")]), protocol_indicators=("TRAFFIC",))


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError, match="unique"):
        FeatureSchema(numeric_features=("HCCS", "UAS", "OTM"), onehot_features=("OTM",))


def merge(records, schema=None):
    """Schema (derived from ``records`` unless given) and merged series."""
    cols = to_columns(records)
    schema = schema or build_schema(cols)
    return schema, merge_to_port_level(cols, schema)


def test_merge_keeps_maximum():
    records = [rec("UAS", fac="OTM", value=3.0), rec("UAS", fac="ETH", value=10.0)]
    schema, series = merge(records)
    assert len(series) == 1
    assert series.values[0, schema.uas_index] == 10.0


def test_merge_fills_missing_days():
    schema = build_schema(to_columns([rec("QAVG")]))
    records = [rec("QAVG", day=1, value=5.0), rec("QAVG", day=3, value=6.0)]
    _, series = merge(records, schema)
    assert series.n_days.tolist() == [3]
    assert np.isnan(series.values[1, schema.numeric_index("QAVG")])


def test_merge_single_reporter_is_kept():
    records = [rec("QAVG", fac="OTM", value=12.0), rec("UAS", fac="ETH", value=1.0)]
    schema, series = merge(records)
    assert len(series) == 1
    assert series.values[0, schema.numeric_index("QAVG")] == 12.0


def test_merge_onehot_is_port_level_or():
    schema = build_schema(to_columns([rec("QAVG"), rec("UAS", fac="ETH", day=2)]))
    records = [rec("QAVG", fac="OTM", day=1), rec("UAS", fac="ETH", day=2)]
    _, series = merge(records, schema)
    np.testing.assert_array_equal(series.onehot, [[1.0, 1.0]])


def test_merge_unknown_pm_rejected():
    schema = FeatureSchema(numeric_features=("HCCS", "UAS"), onehot_features=("OTM",))
    with pytest.raises(SchemaError, match="unknown numeric feature"):
        merge([rec("QAVG")], schema)


def _series_to_records(series, schema):
    out = []
    for p in range(len(series)):
        values = port_rows(series, p)
        for row in range(series.n_days[p]):
            day = start_date(series, p) + timedelta(days=row)
            for j, name in enumerate(schema.numeric_features):
                v = values[row, j]
                if not np.isnan(v):
                    for fac_j, fac in enumerate(schema.onehot_features):
                        if series.onehot[p, fac_j] == 1.0:
                            out.append(Rec(series.network_id[p], series.port_id[p], fac, day, name, float(v)))
                            break
    return out


@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["QAVG", "UAS", "HCCS"]),
            st.sampled_from(["OTM", "ETH"]),
            st.integers(min_value=1, max_value=6),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_merge_max_dominance_bruteforce(data):
    records = [rec(pm, fac=fac, day=day, value=val) for pm, fac, day, val in data]
    schema, series = merge(records)
    assert len(series) == 1

    # Brute force: per (day, pm), merged value equals max of contributions.
    for row in range(series.n_days[0]):
        day = start_date(series) + timedelta(days=row)
        for j, name in enumerate(schema.numeric_features):
            contributions = [r.pm_value for r in records if r.day == day and r.pm_name == name]
            merged = series.values[row, j]
            if contributions:
                assert merged == max(contributions)
            else:
                assert np.isnan(merged)


@given(
    days=st.lists(
        st.tuples(st.integers(1, 8), st.floats(0, 50, allow_nan=False)),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_merge_idempotence(days):
    records = [rec("QAVG", day=d, value=v) for d, v in days]
    schema, series = merge(records)
    _, again = merge(_series_to_records(series, schema), schema)
    np.testing.assert_array_equal(series.values, again.values)
    np.testing.assert_array_equal(series.start_day, again.start_day)


def test_day_continuity():
    schema = build_schema(to_columns([rec("QAVG")]))
    records = [rec("QAVG", day=d, value=float(d)) for d in (2, 5, 9)]
    _, series = merge(records, schema)
    assert series.n_days.tolist() == [8]
    assert series.values.shape[0] == 8
    assert start_date(series) == date(2020, 1, 2)
    np.testing.assert_array_equal(series.values[:, schema.numeric_index("QAVG")], [2, *[np.nan] * 2, 5, *[np.nan] * 3, 9])


# ---------------------------------------------------------------------------
# Columnar ingest against the per-record reference implementation


def reference_parse(path):
    """The per-line parser the columnar one replaced, kept as the oracle
    for its messages."""
    import csv

    from iloscast.ingest import CSV_HEADER

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise IngestError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            network_id, port_id, facility, day_str, pm_name, value_str = row
            try:
                day = date.fromisoformat(day_str)
            except ValueError:
                raise IngestError(f"{path}:{lineno}: malformed date {day_str!r}") from None
            try:
                value = float(value_str)
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: non-numeric value {value_str!r} for {pm_name}"
                ) from None
            if not pm_name:
                raise IngestError(f"{path}:{lineno}: pm_name must be non-empty")
            if not math.isfinite(value):
                raise IngestError(f"{path}:{lineno}: pm_value for {pm_name} on {day} is not finite")
            out.append(Rec(network_id, port_id, facility, day, pm_name, value))
        return out


def reference_merge(records, schema):
    """The per-record max-merge the columnar one replaced."""
    ports = {}
    for r in records:
        col = schema.numeric_index(r.pm_name)
        entry = ports.setdefault((r.network_id, r.port_id), {"days": {}, "facilities": set()})
        entry["facilities"].add(r.facility_type)
        day_vals = entry["days"].setdefault(r.day, {})
        prev = day_vals.get(col)
        if prev is None or r.pm_value > prev:
            day_vals[col] = r.pm_value
    out = []
    for key in sorted(ports):
        days = ports[key]["days"]
        start = min(days)
        values = np.full(((max(days) - start).days + 1, schema.n_numeric), np.nan)
        for day, cols in days.items():
            for col, v in cols.items():
                values[(day - start).days, col] = v
        onehot = np.zeros(schema.n_onehot)
        for fac in ports[key]["facilities"]:
            onehot[schema.onehot_features.index(fac)] = 1.0
        out.append((key, start, values, onehot))
    return out


@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["net1", "net2"]),
            st.sampled_from(["p1", "p2", "p10"]),
            st.sampled_from(["OTM", "ETH", "WDM"]),
            st.integers(min_value=1, max_value=9),
            st.sampled_from(["QAVG", "UAS", "HCCS"]),
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_columnar_merge_matches_reference_bit_for_bit(data):
    records = [
        Rec(net, port, fac, date(2020, 1, day), pm, value)
        for net, port, fac, day, pm, value in data
    ]
    schema, got = merge(records)
    expected = reference_merge(records, schema)
    assert list(zip(got.network_id.tolist(), got.port_id.tolist())) == [key for key, *_ in expected]
    assert got.values.shape[0] == got.n_days.sum()
    for p, (_, start, values, onehot) in enumerate(expected):
        assert start_date(got, p) == start
        # Compare bit patterns, so the sign of a zero counts.
        np.testing.assert_array_equal(port_rows(got, p).view(np.uint64), values.view(np.uint64))
        np.testing.assert_array_equal(got.onehot[p], onehot)


def test_merge_tie_keeps_first_seen_signed_zero():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        records = [rec("QAVG", fac="OTM", value=first), rec("QAVG", fac="ETH", value=second)]
        schema, series = merge(records)
        assert np.signbit(series.values[0, schema.numeric_index("QAVG")]) == np.signbit(first)


GOOD = "net1,p1,OTM,2020-01-01,QAVG,1\n"

BAD_CSV_CASES = {
    "field_count": GOOD + "net1,p1,OTM,2020-01-02,QAVG\n",
    "malformed_date": GOOD + "net1,p1,OTM,2020-13-01,QAVG,1\n",
    "non_numeric": GOOD + "net1,p1,OTM,2020-01-02,QAVG,abc\n",
    "nan_value": GOOD + "net1,p1,OTM,2020-01-02,QAVG,nan\n",
    "inf_value": GOOD + "net1,p1,OTM,2020-01-02,QAVG,-inf\n",
    "empty_pm_name": GOOD + "net1,p1,OTM,2020-01-02,,1\n",
    "date_before_value_in_one_line": "net1,p1,OTM,2020-02-30,QAVG,abc\n",
    "value_before_pm_name_in_one_line": "net1,p1,OTM,2020-01-02,,abc\n",
    "pm_name_before_finite_in_one_line": "net1,p1,OTM,2020-01-02,,inf\n",
    "earlier_line_before_field_count": "net1,p1,OTM,2020-01-02,QAVG,inf\nnet1,p1\n",
    "field_count_before_later_line": "net1,p1\nnet1,p1,OTM,bad,QAVG,1\n",
    "blank_line_before_bad": GOOD + "\n\nnet1,p1,OTM,2020-01-03,QAVG,x\n",
    "crlf_blank_line_before_bad": (GOOD + "\n" + "net1,p1,OTM,20x0-01-03,QAVG,1\n").replace("\n", "\r\n"),
    "crlf_field_count": (GOOD + "net1,p1,OTM\n").replace("\n", "\r\n"),
    "bad_header": "",
    "quoted_field_with_comma": GOOD + 'net1,p1,"OTM,ETH",2020-01-02,QAVG,abc\n',
    "lone_cr": GOOD + "net1,p1,OTM,2020-01-02,QAVG,1\rnet1,p1,OTM,2020-01-03,QAVG,x\n",
    "nul_byte": GOOD + "net1,p1,OTM,2020-01-02,QAVG,1\0\n",
    "bom_before_header": GOOD,
    "blank_first_line": GOOD,
    "last_bad_line_without_final_newline": GOOD + "net1,p1,OTM,2020-01-02,QAVG,abc",
}

#: The header line of a case that does not start with HEADER.
CASE_HEADERS = {
    "bad_header": "network_id,port_id,facility_type,date\n",
    "bom_before_header": "\ufeff" + HEADER,
    "blank_first_line": "\n" + HEADER,
}


@pytest.mark.parametrize("case", sorted(BAD_CSV_CASES))
def test_bad_csv_messages_match_reference(tmp_path, case):
    from iloscast.pipeline import ingest_csvs

    body = BAD_CSV_CASES[case]
    path = tmp_path / "pm.csv"
    header = CASE_HEADERS.get(case, HEADER)
    path.write_bytes((header + body).encode("utf-8"))
    with pytest.raises(IngestError) as expected:
        reference_parse(path)
    with pytest.raises(IngestError) as parsed:
        read_pm_csv(path)
    with pytest.raises(IngestError) as ingested:
        ingest_csvs([path])
    assert str(parsed.value) == str(expected.value)
    assert str(ingested.value) == str(expected.value)


def test_empty_and_missing_files_match_reference(tmp_path):
    from iloscast.pipeline import ingest_csvs

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    for path in (empty, tmp_path / "nope.csv"):
        with pytest.raises(IngestError) as expected:
            reference_parse(path)
        with pytest.raises(IngestError) as ingested:
            ingest_csvs([path])
        assert str(ingested.value) == str(expected.value)


def test_ingest_csvs_matches_reference_records(tmp_path):
    """Three files, blank lines, CRLF, quoted fields and no final newline:
    same schema and series as merging the reference parser's records."""
    from iloscast.pipeline import ingest_csvs

    rng = np.random.default_rng(5)
    paths = []
    all_records = []
    for f in range(3):
        lines = []
        for _ in range(300):
            net = f"net{rng.integers(1, 3)}"
            lines.append(
                f"{net},p{rng.integers(0, 4)},{rng.choice(['OTM', 'ETH'])},"
                f"2020-01-{rng.integers(1, 20):02d},{rng.choice(['QAVG', 'UAS', 'TRAFFIC'])},"
                f"{rng.choice(['0', '-0', '0.0', '-0.0', '1.5', str(rng.normal())])}"
            )
            if rng.random() < 0.05:
                lines.append("")
        text = HEADER + "\n".join(lines) + "\n"
        if f == 1:
            text = text.replace("\n", "\r\n")
        if f == 2:
            # Quoted fields, a comma inside one, and no final newline.
            text = text.replace(",p1,", ',"p1",').replace(",ETH,", ',"ETH,2",').rstrip("\n")
        path = tmp_path / f"pm{f}.csv"
        path.write_bytes(text.encode())
        paths.append(path)
        all_records += reference_parse(path)

    got = ingest_csvs(paths, protocol_indicators=("TRAFFIC",))
    assert sorted(got) == ["net1", "net2"]
    for net, (schema, series) in got.items():
        records = [r for r in all_records if r.network_id == net]
        assert schema == build_schema(to_columns(records), ("TRAFFIC",))
        expected = reference_merge(records, schema)
        assert len(series) == len(expected)
        assert series.values.shape[0] == series.n_days.sum()
        for p, (_, start, values, onehot) in enumerate(expected):
            assert start_date(series, p) == start
            np.testing.assert_array_equal(port_rows(series, p).view(np.uint64), values.view(np.uint64))
            np.testing.assert_array_equal(series.onehot[p], onehot)


def test_undecodable_file_is_an_ingest_error(tmp_path):
    path = tmp_path / "pm.csv"
    path.write_bytes(HEADER.encode() + b"net1,p1,OTM,2020-01-01,QAVG,\xff\xfe\n")
    with pytest.raises(IngestError, match="cannot read .*pm.csv"):
        read_pm_csv(path)


# ---------------------------------------------------------------------------
# Byte path against csv.reader


def cut_or_message(path):
    """``_columns`` of ``path`` as lists, or its IngestError message."""
    try:
        linenos, widths, coded, value_text = ingest._columns(path)
    except IngestError as exc:
        return str(exc)
    return linenos.tolist(), widths.tolist(), [(table, codes.tolist()) for table, codes in coded], value_text


def parse_or_message(path):
    try:
        return to_records(read_pm_csv(path))
    except IngestError as exc:
        return str(exc)


def csv_reader_only():
    """Within the block every text goes to csv.reader."""
    return patch.object(ingest, "_line_bounds", lambda data: None)


#: A field longer than 16 bytes, which the byte path codes by a dict.
LONG = "abcdefghijklmnopq"
#: Pieces of CSV text, each made of , \n \r " a 0 space NUL, a non-ASCII
#: letter and digit and a field of 9-16 bytes or longer.
ANY_PIECES = [",", "\n", "\r", "\r\n", '"', "a", "0", " ", "\0", "a,0, ,a,0,a", "\u00e9", "\u0661", "2020-01-02", LONG]
#: The pieces that the byte path cuts as csv.reader does.
PLAIN_PIECES = [",", "\n", "\r\n", "a", "0", " ", "a,0, ,a,0,a", "\u00e9", "\u0661", "2020-01-02", LONG]
#: Fields of six-field lines that parse, so that coded columns and values
#: are compared too: one and two words, longer than 16 bytes, non-ASCII.
FIELD_CHOICES = [
    ["net1", "n\u00e9t", "net1" + LONG, "net1" + LONG + "2"],
    ["p1", "p\u00e9", "p0000000012", "p0000000013", LONG + LONG, ""],
    ["OTM", "ETH", ""],
    ["2020-01-02", "2020-01-03"],
    ["QAVG", "UAS", "QSTDEVIATION", LONG],
    ["1", "-0", "\u0661", "\u0663.\u0665", "1.5e3", " 2 ", "1_0", "0.000001234567890123"],
]
ROWS = st.lists(
    st.tuples(*(st.sampled_from(choices) for choices in FIELD_CHOICES), st.sampled_from(["\n", "\r\n", "\n\n"])),
    max_size=8,
).map(lambda rows: "".join(",".join(row[:6]) + row[6] for row in rows))


@given(
    header=st.sampled_from(["", HEADER, HEADER.replace("\n", "\r\n")]),
    body=st.one_of(
        st.lists(st.sampled_from(ANY_PIECES), max_size=40).map("".join),
        st.lists(st.sampled_from(PLAIN_PIECES), max_size=40).map("".join),
        ROWS,
    ),
)
@settings(max_examples=600, deadline=None)
def test_byte_path_cuts_as_csv_reader(tmp_path_factory, header, body):
    """Same line numbers, field counts, coded columns and value texts, or
    the same message, whichever path a text takes; a text without a quote,
    a NUL or a \\r outside \\r\\n takes the byte path."""
    text = header + body
    path = tmp_path_factory.getbasetemp() / "split_vs_csv.csv"
    path.write_bytes(text.encode())
    with csv_reader_only():
        expected_cut, expected_parse = cut_or_message(path), parse_or_message(path)
    assert cut_or_message(path) == expected_cut
    assert parse_or_message(path) == expected_parse
    if text:
        plain = '"' not in text and "\0" not in text and "\r" not in text.replace("\r\n", "")
        assert (ingest._line_bounds(text.encode()) is not None) == plain


def test_byte_path_columns_equal_csv_reader_on_generated_files(tmp_path):
    """The generator's files at BENCH_SEED parse to the same PmColumns on
    both paths, to the bit."""
    from iloscast.benchmark import BENCH_SEED
    from iloscast.synth import GenConfig, generate

    for path in generate(GenConfig(seed=BENCH_SEED), tmp_path).csv_paths:
        assert ingest._line_bounds(path.read_bytes()) is not None
        got = read_pm_csv(path)
        with csv_reader_only():
            expected = read_pm_csv(path)
        for table, code, _ in CODED:
            assert getattr(got, table) == getattr(expected, table)
            assert getattr(got, code).dtype == getattr(expected, code).dtype
        for name in ("network", "port", "facility", "pm", "day", "value"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def test_line_longer_than_field_size_limit_goes_to_csv_reader(tmp_path):
    limit = csv.field_size_limit()
    too_long = "net1,p1,OTM,2020-01-01,QAVG," + "1" * (limit + 1) + "\n"
    path = write_csv(tmp_path, GOOD + too_long)
    assert ingest._line_bounds(path.read_bytes()) is None
    with pytest.raises(IngestError, match=rf"cannot read .*pm.csv: field larger than field limit \({limit}\)"):
        read_pm_csv(path)

    # Under a lower limit, a line longer than it whose fields fit parses as
    # csv.reader parses it, and one that fits takes the byte path.
    csv.field_size_limit(len(HEADER))
    try:
        long_line = "net1,p1,OTM,2020-01-01,QAVG," + "1" * 40 + "\n"
        path = write_csv(tmp_path, GOOD + long_line)
        assert ingest._line_bounds(path.read_bytes()) is None
        assert to_records(read_pm_csv(path)) == reference_parse(path)
        path = write_csv(tmp_path, GOOD)
        assert ingest._line_bounds(path.read_bytes()) is not None
    finally:
        csv.field_size_limit(limit)
