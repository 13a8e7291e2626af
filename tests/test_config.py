"""The parameter schema: each knob is a dataclass field defined once, and
the CLI config, its help text and the PGBM header derive from those fields."""

import struct
from dataclasses import fields

from pcapass.analysis import SearchSpace
from pcapass.cli import _search_space
from pcapass.config import RunConfig, config_help_text
from pcapass.datasets import SbmParams
from pcapass.gbdt import PARAMS_FORMAT, GbdtParams


def test_pgbm_parameter_format_has_one_code_per_gbdt_field():
    assert len(PARAMS_FORMAT) == len(fields(GbdtParams))
    # every field packs under its code: floats as d, the seed as q, the rest as I
    packed = struct.pack("<" + PARAMS_FORMAT, *(f.default for f in fields(GbdtParams)))
    assert struct.unpack("<" + PARAMS_FORMAT, packed) == tuple(
        f.default for f in fields(GbdtParams)
    )


def test_library_params_are_run_config_keys_with_the_same_defaults():
    run = {f.name: f for f in fields(RunConfig)}
    for cls in (SbmParams, GbdtParams):
        for f in fields(cls):
            if f.name == "seed":
                continue  # served by the global seed key
            assert f.name in run, f"{cls.__name__}.{f.name} is not a config key"
            assert run[f.name].default == f.default
            assert run[f.name].type == f.type
            assert run[f.name].metadata["help"] == f.metadata["help"]


def test_run_config_keeps_one_seed_and_the_section_order():
    names = [f.name for f in fields(RunConfig)]
    assert names.count("seed") == 1 and names[0] == "seed"
    sbm = [f.name for f in fields(SbmParams) if f.name != "seed"]
    gbdt = [f.name for f in fields(GbdtParams) if f.name != "seed"]
    start = names.index(sbm[0])
    assert names[start : start + len(sbm)] == sbm
    start = names.index(gbdt[0])
    assert names[start : start + len(gbdt)] == gbdt


def test_every_config_key_has_help_text():
    text = config_help_text()
    for f in fields(RunConfig):
        assert f.metadata["help"], f.name
        assert f.metadata["help"] in text


def test_default_hpo_keys_build_the_default_search_space():
    assert _search_space(RunConfig()) == SearchSpace()


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
