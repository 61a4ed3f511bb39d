"""The benchmark tracer wraps program functions by module and name, and
reads the sampler's result; these checks keep that contract visible to
the tier-1 suite, so a rename or a changed result type fails here rather
than in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from sawbridge import cli, counting, renewal, sampler

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves():
    tracer = load_tracer()
    for module_name, attr, _, _ in tracer.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.fixture
def traced(monkeypatch):
    """A tracer wrapping every patched attribute, as a traced stage does;
    the originals come back when the test ends."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("stage", "run")
    for module_name, attr, tag, count in tracer_module.PATCHES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
        tracer.wrap(module, attr, tag, count)
    return tracer


def test_counter_hooks_read_real_results(traced, tmp_path):
    # each counter hook runs on the result of the call it wraps
    table = counting.enumerate_counts(2, 7, counting.WalkClass.ALL)
    # OEIS A001411: walks of 0..7 steps on Z^2
    assert traced.counters["counting.walks_counted"] == 3389
    path = tmp_path / "all.bin"
    counting.save_count_table(table, path)
    assert traced.counters["counting.cache_bytes"] == path.stat().st_size > 0

    irr = counting.enumerate_counts(2, 7, counting.WalkClass.IRREDUCIBLE_BRIDGE)
    law = renewal.build_step_law(irr, 1.2, renewal.calibrate_mass(irr, 1.2))
    assert traced.maxima["renewal.law_support"] == len(law.probs) > 0
    renewal.step_law_from_json(renewal.step_law_to_json(law))
    assert traced.maxima["renewal.law_support"] == len(law.probs)
    exact = counting.exact_conditioned_skeleton_law(2, 4, 1.2, 8)
    assert traced.counters["counting.exact_law_support"] == len(exact) > 1

    partition = sampler.dp_partition(law, 6)
    assert traced.maxima["sampler.dp_radius"] == partition.radius
    assert traced.counters["sampler.dp_cell_updates"] % (6 * len(law.probs)) == 0
    batch = sampler.sample_skeletons(law, partition, seed=0, replicates=range(40))
    assert traced.counters["sampler.replicate_steps"] == len(batch.steps)
    assert traced.maxima["sampler.rounds_max"] == max(
        len(skeleton.increments) for skeleton in batch
    )
    assert traced.counters["rng.streams"] == 40
    assert traced.counters["rng.draws"] == 40 * 6

    csv_path = tmp_path / "rows.csv"
    cli.write_csv_report(csv_path, ["a", "b"], [[1, 2], [3, 4], [5, 6]], {"seed": 0})
    assert traced.counters["reporting.rows_written"] == 3
    assert traced.counters["reporting.bytes_written"] == csv_path.stat().st_size
    cli.read_csv_report(csv_path)
    assert traced.counters["reporting.rows_read"] == 3


def test_enumerate_traces_one_count_call_per_walk_class(traced, tmp_path):
    # the benchmark times enumerate_counts per walk class and counts the
    # entries of every table it returns, the irreducible one included
    config = cli.resolve_config(None, {"d": 2, "cutoff": 7, "out": str(tmp_path)})
    cli.cmd_enumerate(config)
    spans = [span for span in traced.spans if span["name"].endswith(".enumerate_counts")]
    assert sorted(span["tag"] for span in spans) == ["all", "bridge", "irreducible"]
    tables = [
        counting.load_count_table(cli.cache_path(config, walk_class))
        for walk_class in counting.WalkClass
    ]
    total = sum(int(row.sum()) for table in tables for row in table.counts.values())
    assert traced.counters["counting.walks_counted"] == total


def test_unique_states_reads_a_sampled_batch():
    tracer = load_tracer()
    irr = counting.enumerate_counts(2, 7, counting.WalkClass.IRREDUCIBLE_BRIDGE)
    law = renewal.build_step_law(irr, 1.2, renewal.calibrate_mass(irr, 1.2))
    batch = sampler.sample_skeletons(
        law, sampler.dp_partition(law, 6), seed=0, replicates=range(40)
    )
    steps = sum(len(skeleton.increments) for skeleton in batch)
    assert steps == len(batch.steps)
    assert 0 < tracer.unique_states(batch) <= steps


def test_traced_arguments_are_parameters_of_the_wrapped_callables():
    # a tag or counter reads the call's arguments by name, as bound["name"]
    tracer = load_tracer()
    read = {}
    for module_name, attr, tag, count in tracer.PATCHES:
        for hook in (tag, count):
            if hook is None:
                continue
            names = re.findall(r'bound\["(\w+)"\]', inspect.getsource(hook))
            read.setdefault(f"{module_name}.{attr}", set()).update(names)
            module = importlib.import_module(module_name)
            parameters = inspect.signature(getattr(module, attr)).parameters
            for name in names:
                assert name in parameters, f"{module_name}.{attr} has no {name!r}"
    assert {key: names for key, names in read.items() if names} == {
        "sawbridge.counting.enumerate_counts": {"walk_class"},
        "sawbridge.counting.save_count_table": {"path"},
        "sawbridge.sampler.dp_partition": {"law"},
        "sawbridge.cli.write_csv_report": {"path"},
    }
