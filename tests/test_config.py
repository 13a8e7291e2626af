"""The parameter schema: each knob is a field of SbmParams, EmbedConfig,
GbdtParams, SweepConfig or SearchSpace, defined once with its default, help
text and least value, or a CLI-only key of config.py's _Global. The config
keys, their help text, the CLI's dataclass construction and the PGBM header
derive from those fields; the literal key table below pins what the
derivation produces."""

import math
import struct
from dataclasses import fields
from enum import Enum

import pytest

from pcapass.analysis import SearchSpace, SweepConfig
from pcapass.config import (
    SECTIONS,
    RunConfig,
    _Global,
    build_config,
    config_help_text,
    from_config,
    parse_config_file,
)
from pcapass.datasets import SbmParams
from pcapass.embed import EmbedConfig
from pcapass.errors import ConfigError
from pcapass.gbdt import PARAMS_FORMAT, GbdtParams

# Every config key as (name, type, default), in `--help` order.
RUN_CONFIG_KEYS = [
    ("seed", "int", 0),
    ("threads", "int", 1),
    ("out", "str", "run_out"),
    ("dataset_dir", "str", ""),
    ("embeddings_path", "str", ""),
    ("model_path", "str", ""),
    ("n_nodes", "int", 2000),
    ("n_classes", "int", 4),
    ("p_in", "float", 0.05),
    ("p_out", "float", 0.005),
    ("n_features", "int", 16),
    ("feature_signal", "float", 1.0),
    ("train_frac", "float", 0.6),
    ("valid_frac", "float", 0.2),
    ("test_frac", "float", 0.2),
    ("method", "str", "pcapass"),
    ("aggregator", "str", "mean"),
    ("k", "int", 8),
    ("d", "int", 16),
    ("learning_rate", "float", 0.1),
    ("max_depth", "int", 6),
    ("n_rounds", "int", 500),
    ("reg_lambda", "float", 1.0),
    ("min_child_hessian", "float", 1.0),
    ("patience", "int", 10),
    ("n_bins", "int", 256),
    ("subsample", "float", 1.0),
    ("sweep_hops", "int", 30),
    ("sweep_methods", "str", "pcapass,message_passing,skip_connections"),
    ("k_clusters", "int", 0),
    ("kmeans_restarts", "int", 1),
    ("hpo_runs", "int", 50),
    ("hpo_k_min", "int", 1),
    ("hpo_k_max", "int", 10),
    ("hpo_d_min", "int", 4),
    ("hpo_d_max", "int", 32),
    ("hpo_lr_min", "float", 0.03),
    ("hpo_lr_max", "float", 0.3),
    ("hpo_depth_min", "int", 3),
    ("hpo_depth_max", "int", 8),
    ("hpo_lambda_min", "float", 0.1),
    ("hpo_lambda_max", "float", 10.0),
    ("hpo_subsample_min", "float", 0.6),
    ("hpo_subsample_max", "float", 1.0),
    ("hpo_rounds", "int", 200),
    ("hpo_aggregators", "str", "mean,symnorm"),
]


def test_run_config_keys_are_the_literal_table():
    # A slip in the derivation (a renamed, retyped, reordered or dropped key)
    # fails here rather than silently changing the config file format.
    assert [(f.name, f.type, f.default) for f in fields(RunConfig)] == RUN_CONFIG_KEYS
    assert [type(f.default).__name__ for f in fields(RunConfig)] == [
        typ for _, typ, _ in RUN_CONFIG_KEYS
    ]


def test_pgbm_parameter_format_has_one_code_per_gbdt_field():
    assert len(PARAMS_FORMAT) == len(fields(GbdtParams))
    # every field packs under its code: floats as d, the seed as q, the rest as I
    packed = struct.pack("<" + PARAMS_FORMAT, *(f.default for f in fields(GbdtParams)))
    assert struct.unpack("<" + PARAMS_FORMAT, packed) == tuple(
        f.default for f in fields(GbdtParams)
    )


def _expected_keys(f):
    """(name, type, default, help) of the config keys that field `f` derives,
    written out case by case."""
    text, stem = f.metadata["help"], f.metadata.get("key") or f.name
    if isinstance(f.default, Enum):
        choices = " | ".join(member.value for member in type(f.default))
        return [(stem, "str", f.default.value, f"{text}: {choices}")]
    if isinstance(f.default, tuple) and isinstance(f.default[0], str):
        return [(stem, "str", ",".join(f.default), text)]
    if isinstance(f.default, tuple):
        lo, hi = f.default
        return [
            (f"{stem}_min", type(lo).__name__, lo, f"{text}, lower bound"),
            (f"{stem}_max", type(hi).__name__, hi, f"{text}, upper bound"),
        ]
    return [(stem, f.type, f.default, text)]


# The library's settings classes, in their `--help` order.
SETTINGS_CLASSES = (SbmParams, EmbedConfig, GbdtParams, SweepConfig, SearchSpace)


def test_library_params_are_run_config_keys_with_the_same_defaults():
    run = {f.name: f for f in fields(RunConfig)}
    for cls in SETTINGS_CLASSES:
        for f in fields(cls):
            if not f.metadata.get("help"):
                # served by the key of its name: the global seed, the
                # embedding key of SearchSpace.method, or the GBDT key of
                # SearchSpace.patience, .n_bins and .min_child_hessian
                keyless = ("seed", "method", "patience", "n_bins", "min_child_hessian")
                assert f.name in keyless, f"{cls.__name__}.{f.name}"
                default = f.default.value if isinstance(f.default, Enum) else f.default
                assert run[f.name].default == default
                continue
            for name, typ, default, text in _expected_keys(f):
                assert name in run, f"{cls.__name__}.{f.name}: {name} is not a config key"
                assert run[name].default == default
                assert run[name].type == typ
                assert run[name].metadata["help"] == text


def test_run_config_keeps_one_seed_and_the_section_order():
    names = [f.name for f in fields(RunConfig)]
    assert names.count("seed") == 1 and names[0] == "seed"
    sections = []
    for cls in SETTINGS_CLASSES:
        keys = [
            name
            for f in fields(cls)
            if f.metadata.get("help")
            for name, *_ in _expected_keys(f)
        ]
        start = names.index(keys[0])
        assert names[start : start + len(keys)] == keys, cls.__name__
        sections.append((start, start + len(keys)))
    # the library sections in this order, each right after the one before,
    # and hpo_runs still the first search key
    assert [start for start, _ in sections[1:]] == [end for _, end in sections[:-1]]
    assert names[sections[3][0] : sections[4][0]] == [
        "sweep_hops", "sweep_methods", "k_clusters", "kmeans_restarts"
    ]
    assert names[sections[4][0]] == "hpo_runs"


def test_every_key_outside_global_is_a_library_settings_field():
    # config.py declares no library setting: each key but the CLI's own
    # (_Global's) derives from a field of a settings class
    derived = [
        name
        for cls in SETTINGS_CLASSES
        for f in fields(cls)
        if f.metadata.get("help")
        for name, *_ in _expected_keys(f)
    ]
    names = [f.name for f in fields(RunConfig)]
    assert names == [f.name for f in fields(_Global)] + derived
    assert SECTIONS == SETTINGS_CLASSES  # the sections build_config builds


def test_every_config_key_has_help_text():
    text = config_help_text()
    for f in fields(RunConfig):
        assert f.metadata["help"], f.name
        assert f.metadata["help"] in text


def test_config_file_skips_indented_comment_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("  # hops\n\t# and dimension\nk = 3\n")
    assert parse_config_file(path) == {"k": 3}


def test_a_search_space_without_aggregators_is_rejected():
    # the config keys cannot say it: an empty comma list is refused first
    with pytest.raises(ValueError, match="^at least one aggregator is needed$"):
        SearchSpace(aggregators=())


def test_default_hpo_keys_build_the_default_search_space():
    assert from_config(SearchSpace, RunConfig()) == SearchSpace()
    assert from_config(SweepConfig, RunConfig()) == SweepConfig()
    assert from_config(EmbedConfig, RunConfig()) == EmbedConfig()


def test_help_text_of_every_key_starts_at_one_column():
    lines = config_help_text().splitlines()[1:]
    columns = set()
    for f in fields(RunConfig):
        entry = f"  {f.name} = {f.default!r}"
        line = lines.pop(0)
        assert line.startswith(entry), line
        if line == entry:  # a long entry: its help text is on the next line
            line = lines.pop(0)
        columns.add(line.index(f.metadata["help"]))
    assert not lines
    assert len(columns) == 1


def _non_finite_cases():
    """Each float field of the four settings classes, and each bound of a
    float range, set to nan, inf and -inf; EmbedConfig has no float field."""
    for cls in (SbmParams, EmbedConfig, GbdtParams, SearchSpace):
        for f in fields(cls):
            if "float" not in f.type:
                continue
            for bad in (math.nan, math.inf, -math.inf):
                if isinstance(f.default, tuple):
                    lo, hi = f.default
                    values = [("_min", (bad, hi)), ("_max", (lo, bad))]
                else:
                    values = [("", bad)]
                for bound, value in values:
                    yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}{bound}-{bad}")


@pytest.mark.parametrize("cls, name, value", _non_finite_cases())
def test_every_settings_class_rejects_a_non_finite_float(cls, name, value):
    # SbmParams(feature_signal=nan) once dropped the class signal,
    # SbmParams(train_frac=nan) failed converting nan to an int, and a nan or
    # infinite SearchSpace bound recorded every search run as failed.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        cls(**{name: value})


# Each config key that declares a least value, and that value.
BOUNDED_KEYS = {
    "seed": 0,
    "threads": 1,
    "n_nodes": 1,
    "n_features": 1,
    "feature_signal": 0,
    "k": 0,
    "d": 1,
    "max_depth": 1,
    "n_rounds": 0,
    "reg_lambda": 0,
    "min_child_hessian": 0,
    "patience": 1,
    "n_bins": 2,
    "sweep_hops": 1,
    "k_clusters": 0,
    "kmeans_restarts": 1,
    "hpo_runs": 1,
    "hpo_k_min": 0,
    "hpo_k_max": 0,
    "hpo_d_min": 1,
    "hpo_d_max": 1,
    "hpo_depth_min": 1,
    "hpo_depth_max": 1,
}


def _declared_lows() -> dict:
    """Each RunConfig key's `low`, for the keys that declare one."""
    lows = {f.name: f.metadata.get("low") for f in fields(RunConfig)}
    return {key: low for key, low in lows.items() if low is not None}


def test_the_bounded_keys_are_the_literal_table():
    # a dropped `low` declaration fails here
    assert _declared_lows() == BOUNDED_KEYS


def _accepted_or_refused(overrides: dict, key: str, refusal: str | None) -> None:
    """`build_config` accepts `overrides` and keeps `key`'s value, or, given
    a `refusal`, refuses them with that message of a settings section."""
    if refusal is None:
        assert getattr(build_config(None, overrides), key) == overrides[key]
        return
    with pytest.raises(ConfigError) as info:
        build_config(None, overrides)
    assert str(info.value) == refusal


# Keys that make every settings section valid beside a key at its declared
# low, where the low alone leaves a section invalid.
AT_LOW_COMPANIONS = {
    "n_features": {"feature_signal": 0},  # one feature holds no equidistant centroids
    "hpo_k_max": {"hpo_k_min": 0},
    "hpo_d_max": {"hpo_d_min": 1},
    "hpo_depth_max": {"hpo_depth_min": 1},
}
# A key at its declared low that no companion keys make valid, and the
# message of the settings section that refuses it.
AT_LOW_REFUSALS = {
    "n_nodes": "train_frac = 0.6 gives the smallest class (0 of 1 nodes in 4 classes) "
    "no train node",
}


@pytest.mark.parametrize("key, low", _declared_lows().items())
def test_build_config_checks_every_declared_low(key, low):
    # the key tier refuses low - 1; at low, every settings section judges it
    with pytest.raises(ConfigError) as info:
        build_config(None, {key: low - 1})
    assert str(info.value) == f"{key} must be >= {low}, got {low - 1}"
    overrides = {key: low, **AT_LOW_COMPANIONS.get(key, {})}
    _accepted_or_refused(overrides, key, AT_LOW_REFUSALS.get(key))


@pytest.mark.parametrize("name, low", [("k", 0), ("d", 1), ("max_depth", 1)])
def test_either_bound_of_a_search_range_below_its_low_is_rejected(name, low):
    # either bound below the field's low is rejected, before the range's order
    assert getattr(SearchSpace(**{name: (low, low)}), name) == (low, low)
    for value in ((low - 1, low + 1), (low + 1, low - 1), (low - 1, low - 2)):
        with pytest.raises(ValueError) as info:
            SearchSpace(**{name: value})
        assert str(info.value) == f"{name} must be >= {low}, got {value}"


@pytest.mark.parametrize("cls", [SbmParams, GbdtParams])
def test_the_library_seed_without_a_key_is_bounded_too(cls):
    assert cls(seed=0).seed == 0
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        cls(seed=-1)


@pytest.mark.parametrize(
    "cls, settings, message",
    [
        (EmbedConfig, {"k": 2, "method": "pcapass"}, "method must be a Method, got 'pcapass'"),
        (EmbedConfig, {"method": "nope"}, "method must be a Method, got 'nope'"),
        (SearchSpace, {"method": "pcapass"}, "method must be a Method, got 'pcapass'"),
        (EmbedConfig, {"aggregator": "mean"}, "aggregator must be an Aggregator, got 'mean'"),
    ],
)
def test_an_enum_setting_must_hold_a_member_of_its_enum(cls, settings, message):
    # EmbedConfig(method="pcapass") once ran message passing, SearchSpace's
    # searched it, and EmbedConfig(aggregator="mean") failed inside aggregate
    with pytest.raises(ValueError) as info:
        cls(**settings)
    assert str(info.value) == message


INT64_MAX = 2**63 - 1
# The largest value of an integer the model file stores (PGBM's "I" code).
UINT32_MAX = 2**32 - 1

# Keys beside a key at INT64_MAX that make every settings section valid, or,
# for hpo_depth_min, leave the model-file cap as the one refusal.
AT_INT64_MAX_COMPANIONS = {
    "hpo_k_min": {"hpo_k_max": INT64_MAX},
    "hpo_d_min": {"hpo_d_max": INT64_MAX},
    "hpo_depth_min": {"hpo_depth_max": INT64_MAX},  # not an inverted range
}
# A key at INT64_MAX that no companion keys make valid, and the message of
# the settings section that refuses it.
AT_INT64_MAX_REFUSALS = {
    "n_classes": f"train_frac = 0.6 gives the smallest class (0 of 2000 nodes in {INT64_MAX} "
    "classes) no train node",
    **{
        key: f"{name} must be <= {UINT32_MAX}, got {INT64_MAX}"  # GbdtParams' model-file cap
        for key, name in [
            ("max_depth", "max_depth"),
            ("n_rounds", "n_rounds"),
            ("patience", "patience"),
            ("n_bins", "n_bins"),
            ("hpo_depth_min", "max_depth"),
            ("hpo_depth_max", "max_depth"),
            ("hpo_rounds", "n_rounds"),
        ]
    },
}


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type == "int"])
def test_build_config_caps_every_int_key_at_int64(key):
    # hpo_d_max = 10**19 once made hpo exit 4 from rng.integers, and gen
    # exited 4 with n_nodes or n_features there. The key tier refuses
    # INT64_MAX + 1; at INT64_MAX, every settings section judges it.
    overrides = {key: INT64_MAX, **AT_INT64_MAX_COMPANIONS.get(key, {})}
    _accepted_or_refused(overrides, key, AT_INT64_MAX_REFUSALS.get(key))
    with pytest.raises(ConfigError) as info:
        build_config(None, {key: INT64_MAX + 1})
    assert str(info.value) == f"{key} must be <= {INT64_MAX}, got {INT64_MAX + 1}"


@pytest.mark.parametrize("name", ["k", "d"])
def test_either_bound_of_an_int_range_past_int64_is_rejected(name):
    # rng.integers(lo, hi + 1) takes hi = INT64_MAX
    assert getattr(SearchSpace(**{name: (1, INT64_MAX)}), name) == (1, INT64_MAX)
    for value in ((1, INT64_MAX + 1), (INT64_MAX + 1, INT64_MAX + 2)):
        with pytest.raises(ValueError) as info:
            SearchSpace(**{name: value})
        assert str(info.value) == f"{name} must be <= {INT64_MAX}, got {value}"
