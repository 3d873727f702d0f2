import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windforecast.dataset import (
    Dataset,
    DesignMatrix,
    FeatureSet,
    MinMaxScaler,
    Record,
    SplitSpec,
    SyntheticConfig,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    invert_scaler,
    parse_csv,
    power_curve,
    select_features,
    split,
    write_csv,
)
from windforecast.errors import (
    DegenerateSplit,
    EmptyInput,
    InvalidConfig,
    MalformedHeader,
    MixedTimezones,
    NonMonotonicTimestamps,
    RowParseError,
)
from windforecast.stats import pearson

HEADER = "timestamp,wind_speed,wind_direction,temperature,power"


def _csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def _record(i, power=100.0, speed=5.0, direction=180.0, temp=15.0):
    return Record(
        timestamp=datetime(2019, 1, 1) + i * timedelta(minutes=15),
        wind_speed=speed,
        wind_direction=direction,
        temperature=temp,
        power=power,
    )


def toy_dataset(powers, rated_power=2000.0):
    return Dataset([_record(i, power=p) for i, p in enumerate(powers)], rated_power)


# -- parse_csv ----------------------------------------------------------------

def test_parse_well_formed_keeps_order():
    text = _csv(
        [
            "2019-01-01T00:00:00,5.0,100.0,20.0,400.0",
            "2019-01-01T00:15:00,6.0,110.0,21.0,600.0",
            "2019-01-01T00:30:00,7.0,120.0,22.0,800.0",
        ]
    )
    d = parse_csv(text, rated_power=2000.0)
    assert len(d) == 3
    assert [r.wind_speed for r in d.records] == [5.0, 6.0, 7.0]
    assert [r.power for r in d.records] == [400.0, 600.0, 800.0]
    assert d.records[0].timestamp == datetime(2019, 1, 1)


def test_parse_accepts_bytes_and_streams(tmp_path):
    text = _csv(["2019-01-01T00:00:00,5.0,100.0,20.0,400.0"])
    assert parse_csv(text.encode()) == parse_csv(text)
    p = tmp_path / "d.csv"
    p.write_text(text)
    with open(p, "rb") as fh:
        assert parse_csv(fh) == parse_csv(text)


def test_parse_rejects_direction_361_naming_row():
    text = _csv(
        [
            "2019-01-01T00:00:00,5.0,100.0,20.0,400.0",
            "2019-01-01T00:15:00,6.0,361.0,21.0,600.0",
            "2019-01-01T00:30:00,7.0,120.0,22.0,800.0",
        ]
    )
    with pytest.raises(RowParseError) as exc:
        parse_csv(text)
    assert exc.value.rows == [2]
    assert "wind_direction" in str(exc.value)


def test_parse_shuffled_timestamps():
    text = _csv(
        [
            "2019-01-01T00:15:00,5.0,100.0,20.0,400.0",
            "2019-01-01T00:00:00,6.0,110.0,21.0,600.0",
        ]
    )
    with pytest.raises(NonMonotonicTimestamps):
        parse_csv(text)


def test_parse_duplicate_timestamp_rejected():
    row = "2019-01-01T00:00:00,5.0,100.0,20.0,400.0"
    with pytest.raises(NonMonotonicTimestamps):
        parse_csv(_csv([row, row]))


def test_parse_mixed_naive_and_aware_timestamps_names_row():
    text = _csv(
        [
            "2019-01-01T00:00:00,5.0,100.0,20.0,400.0",
            "2019-01-01T00:15:00,6.0,110.0,21.0,600.0",
            "2019-01-01T00:30:00+00:00,7.0,120.0,22.0,800.0",
        ]
    )
    with pytest.raises(MixedTimezones) as exc:
        parse_csv(text)
    message = str(exc.value)
    assert message.startswith("row 3: ")
    assert "2019-01-01T00:30:00+00:00" in message and "2019-01-01T00:15:00" in message


def test_dataset_mixed_naive_and_aware_timestamps_names_row():
    aware = Record(datetime(2019, 1, 1, tzinfo=timezone.utc), 5.0, 180.0, 15.0, 100.0)
    naive = _record(1)
    with pytest.raises(MixedTimezones) as exc:
        Dataset([aware, naive], 2000.0)
    message = str(exc.value)
    assert message.startswith("row 2: ")
    assert aware.timestamp.isoformat() in message and naive.timestamp.isoformat() in message


def test_parse_malformed_header():
    with pytest.raises(MalformedHeader):
        parse_csv("time,speed,dir,temp,power\n1,2,3,4,5\n")


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_csv("")
    with pytest.raises(EmptyInput):
        parse_csv(HEADER + "\n")


def test_parse_collects_all_bad_rows():
    text = _csv(
        [
            "2019-01-01T00:00:00,-1.0,100.0,20.0,400.0",
            "not-a-time,6.0,110.0,21.0,600.0",
            "2019-01-01T00:30:00,7.0,120.0,22.0,oops",
            "2019-01-01T00:45:00,7.0,120.0,22.0,800.0",
        ]
    )
    with pytest.raises(RowParseError) as exc:
        parse_csv(text)
    assert exc.value.rows == [1, 2, 3]


def test_parse_rejects_power_above_rated_allowance():
    text = _csv(["2019-01-01T00:00:00,5.0,100.0,20.0,2200.0"])
    with pytest.raises(RowParseError):
        parse_csv(text, rated_power=2000.0)
    # 5% over rated is still acceptable
    ok = parse_csv(_csv(["2019-01-01T00:00:00,5.0,100.0,20.0,2100.0"]), rated_power=2000.0)
    assert ok.records[0].power == 2100.0


def test_parse_infers_rated_power_from_peak():
    text = _csv(
        [
            "2019-01-01T00:00:00,5.0,100.0,20.0,400.0",
            "2019-01-01T00:15:00,9.0,110.0,21.0,1500.0",
        ]
    )
    assert parse_csv(text).rated_power == 1500.0


def test_roundtrip_write_then_parse(synthetic_5k):
    text = write_csv(synthetic_5k)
    again = parse_csv(text, rated_power=synthetic_5k.rated_power)
    assert again == synthetic_5k


# -- Dataset invariants -------------------------------------------------------

def test_dataset_rejects_empty():
    with pytest.raises(EmptyInput):
        Dataset([], rated_power=2000.0)


def test_dataset_rejects_bad_record():
    with pytest.raises(RowParseError):
        Dataset([_record(0, speed=-2.0)], rated_power=2000.0)


def test_dataset_columns_are_readonly():
    d = toy_dataset([10.0, 20.0])
    col = d.column("power")
    assert not col.flags.writeable
    assert col.tolist() == [10.0, 20.0]


# -- synthetic generator ------------------------------------------------------

def test_power_curve_regions():
    cfg = SyntheticConfig()
    assert power_curve(cfg, 0.0) == 0.0
    assert power_curve(cfg, 2.9) == 0.0  # below cut-in
    assert power_curve(cfg, 26.0) == 0.0  # above cut-out
    assert power_curve(cfg, 20.0) == cfg.rated_power  # plateau
    assert power_curve(cfg, 25.0) == cfg.rated_power  # cut-out boundary still rated


def test_power_curve_matches_cubic_law_at_rated_speed():
    # with a huge rated power the cap never engages, so the curve is the
    # plain kinetic-energy law at the rated speed
    cfg = SyntheticConfig(rated_power=1e9, noise_sd=0.0)
    expected = 0.5 * 1.225 * 0.45 * 5000.0 * 12.0**3 / 1000.0  # 2381.4 kW
    assert power_curve(cfg, cfg.rated_speed) == pytest.approx(expected, rel=1e-12)
    assert power_curve(cfg, cfg.rated_speed) == pytest.approx(2381.4, rel=1e-12)


def test_synthetic_determinism_byte_identical():
    cfg = SyntheticConfig(n_samples=300, seed=123)
    assert write_csv(generate_synthetic(cfg)) == write_csv(generate_synthetic(cfg))
    other = generate_synthetic(SyntheticConfig(n_samples=300, seed=124))
    assert write_csv(other) != write_csv(generate_synthetic(cfg))


def test_synthetic_below_cut_in_rows_clamp_to_zero():
    d = generate_synthetic(SyntheticConfig(n_samples=3000, seed=5))
    cfg = SyntheticConfig()
    calm = [r.power for r in d.records if r.wind_speed < cfg.cut_in_speed]
    assert calm, "expected some below-cut-in rows"
    assert all(p >= 0.0 for p in calm)
    # negative noise draws get clamped to exactly zero
    assert any(p == 0.0 for p in calm)


def test_synthetic_timestamps_on_15_minute_grid():
    d = generate_synthetic(SyntheticConfig(n_samples=50, seed=1))
    deltas = {
        (b.timestamp - a.timestamp) for a, b in zip(d.records, d.records[1:])
    }
    assert deltas == {timedelta(minutes=15)}


def test_synthetic_correlation_structure(synthetic_5k):
    d = synthetic_5k
    assert pearson(d.column("wind_speed"), d.column("power")) >= 0.85
    assert abs(pearson(d.column("wind_direction"), d.column("power"))) < 0.15
    assert abs(pearson(d.column("temperature"), d.column("power"))) < 0.15


def test_synthetic_respects_conversion_bound(noise_free_2k):
    # noise-free power never exceeds the 59% kinetic-energy limit
    cfg = SyntheticConfig(n_samples=2000, noise_sd=0.0, seed=7)
    v = noise_free_2k.column("wind_speed")
    betz = 0.5 * cfg.air_density * 0.59 * cfg.rotor_area * v**3 / 1000.0
    assert np.all(noise_free_2k.column("power") <= betz)


def test_synthetic_config_validation():
    with pytest.raises(InvalidConfig):
        SyntheticConfig(cut_in_speed=13.0)  # cut-in above rated
    with pytest.raises(InvalidConfig):
        SyntheticConfig(power_coefficient=0.6)
    with pytest.raises(InvalidConfig):
        SyntheticConfig(power_coefficient=0.0)
    with pytest.raises(InvalidConfig):
        SyntheticConfig(n_samples=0)
    with pytest.raises(InvalidConfig):
        SyntheticConfig(noise_sd=-1.0)


# -- split --------------------------------------------------------------------

def test_split_sizes_85_15():
    d = toy_dataset(np.linspace(0, 100, 100))
    train, test = split(d, SplitSpec(train_fraction=0.85, seed=0))
    assert len(train) == 85
    assert len(test) == 15


def test_split_deterministic_and_seed_sensitive():
    d = toy_dataset(np.arange(200, dtype=float))
    a = split(d, SplitSpec(0.8, seed=11))
    b = split(d, SplitSpec(0.8, seed=11))
    c = split(d, SplitSpec(0.8, seed=12))
    assert a[0] == b[0] and a[1] == b[1]
    assert a[0] != c[0]


def test_split_degenerate():
    d = toy_dataset([1.0])
    with pytest.raises(DegenerateSplit):
        split(d, SplitSpec(0.5, seed=0))


def test_split_fraction_bounds():
    with pytest.raises(InvalidConfig):
        SplitSpec(0.4, seed=0)
    with pytest.raises(InvalidConfig):
        SplitSpec(0.995, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=250),
    fraction=st.floats(min_value=0.5, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_split_is_a_partition(n, fraction, seed):
    d = toy_dataset(np.arange(n, dtype=float))
    try:
        train, test = split(d, SplitSpec(fraction, seed))
    except DegenerateSplit:
        n_train = math.floor(n * fraction)
        assert n_train in (0, n)
        return
    assert len(train) + len(test) == n
    train_ts = {r.timestamp for r in train.records}
    test_ts = {r.timestamp for r in test.records}
    assert not train_ts & test_ts
    assert train_ts | test_ts == {r.timestamp for r in d.records}


def test_split_sides_stay_chronological():
    d = toy_dataset(np.arange(64, dtype=float))
    train, test = split(d, SplitSpec(0.75, seed=3))
    for side in (train, test):
        stamps = [r.timestamp for r in side.records]
        assert stamps == sorted(stamps)


# -- select_features ----------------------------------------------------------

def test_select_features_shapes_and_names():
    d = toy_dataset(np.arange(10, dtype=float))
    m1 = select_features(d, FeatureSet.SPEED_ONLY)
    assert m1.rows.shape == (10, 1)
    assert m1.feature_names == ("wind_speed",)
    m3 = select_features(d, FeatureSet.SPEED_DIRECTION_TEMPERATURE)
    assert m3.rows.shape == (10, 3)
    assert m3.feature_names == ("wind_speed", "wind_direction", "temperature")
    assert np.array_equal(m3.target, d.column("power"))


def test_feature_set_parsing():
    assert FeatureSet.parse("speed") is FeatureSet.SPEED_ONLY
    assert FeatureSet.parse("SPEED_DIRECTION") is FeatureSet.SPEED_DIRECTION
    with pytest.raises(InvalidConfig):
        FeatureSet.parse("direction_only")


def test_design_matrix_shape_validation():
    with pytest.raises(InvalidConfig):
        DesignMatrix(rows=np.ones((3, 2)), target=np.ones(4), feature_names=("a", "b"))
    with pytest.raises(InvalidConfig):
        DesignMatrix(rows=np.ones((3, 2)), target=np.ones(3), feature_names=("a",))


# -- scaler -------------------------------------------------------------------

def test_scaler_maps_to_unit_interval():
    m = DesignMatrix(rows=np.array([[2.0], [4.0], [6.0]]), target=np.zeros(3), feature_names=("x",))
    s = fit_scaler(m)
    scaled = apply_scaler(s, m)
    assert scaled.rows[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_scaler_constant_feature_maps_to_zero():
    m = DesignMatrix(rows=np.array([[5.0], [5.0]]), target=np.zeros(2), feature_names=("x",))
    s = fit_scaler(m)
    scaled = apply_scaler(s, m)
    assert scaled.rows[:, 0].tolist() == [0.0, 0.0]
    assert invert_scaler(s, scaled).rows[:, 0].tolist() == [5.0, 5.0]


def test_scaler_feature_count_mismatch():
    m = DesignMatrix(rows=np.ones((2, 2)), target=np.zeros(2), feature_names=("a", "b"))
    s = fit_scaler(m)
    other = DesignMatrix(rows=np.ones((2, 1)), target=np.zeros(2), feature_names=("a",))
    with pytest.raises(InvalidConfig):
        apply_scaler(s, other)


def test_scaler_invariant_validation():
    with pytest.raises(InvalidConfig):
        MinMaxScaler(mins=np.array([1.0]), maxs=np.array([0.0]))


# feature values span the physical ranges seen in SCADA data (speeds,
# directions, temperatures, kW); the 1e-12 relative round trip holds there
@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e3, max_value=1e3),
            st.floats(min_value=-1e3, max_value=1e3),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_scaler_roundtrip_identity(pairs):
    rows = np.array(pairs, dtype=np.float64)
    m = DesignMatrix(rows=rows, target=np.zeros(len(pairs)), feature_names=("a", "b"))
    s = fit_scaler(m)
    back = invert_scaler(s, apply_scaler(s, m)).rows
    scale = np.maximum(np.abs(rows), 1.0)
    assert np.all(np.abs(back - rows) <= 1e-12 * scale)
