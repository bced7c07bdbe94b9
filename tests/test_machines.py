"""The machine registry and the one run key.

* :mod:`repro.machines` is the only module that names machines: an AST
  scan over ``src/repro`` fails on any other module that compares or
  lists machine-name literals.
* Run specs are canonical at construction: equivalent spellings of one
  run are equal and share one ``spec_key``, and a spec the machine
  cannot interpret raises ``ValueError`` when it is built.
* ``ooo`` overrides are applied, not dropped.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro import machines
from repro.baseline import OoOConfig
from repro.core import CONFIG_PRESETS
from repro.harness import (
    RunSpec,
    clear_cache,
    diskcache,
    run_baseline,
    run_specs,
    spec_key,
)
from repro.obs import deterministic_view
from repro.sampling import SampledSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(autouse=True)
def fresh_caches():
    diskcache.configure(None)
    clear_cache()
    yield
    diskcache.reset()
    clear_cache()


# =====================================================================
# One dispatch point
# =====================================================================

def _names_in(node):
    """Machine-name string literals directly inside a literal
    collection node (or the node itself)."""
    if isinstance(node, ast.Constant):
        return {node.value} & set(machines.NAMES)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {e.value for e in node.elts
                if isinstance(e, ast.Constant)} & set(machines.NAMES)
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys
                if isinstance(k, ast.Constant)} & set(machines.NAMES)
    return set()


def dispatch_sites(tree):
    """``(line, names)`` of every comparison against, or literal
    collection of, machine names in one module."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found = set()
            for operand in [node.left] + node.comparators:
                found |= _names_in(operand)
            if found:
                sites.append((node.lineno, sorted(found)))
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            found = _names_in(node)
            if found:
                sites.append((node.lineno, sorted(found)))
    return sites


def test_only_the_registry_names_machines():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "machines.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, names in dispatch_sites(tree):
            offenders.append(f"{path.relative_to(SRC)}:{line} {names}")
    assert not offenders, (
        "machine dispatch outside repro.machines:\n"
        + "\n".join(offenders))


@pytest.mark.parametrize("source", [
    'machine == "diag"',
    'machine in ("diag", "ooo")',
    'p.add_argument("--machine", choices=("both", "ooo"))',
    '"ooo" != machine',
    '{"diag": 0}',
])
def test_guard_catches_dispatch(source):
    assert dispatch_sites(ast.parse(source))


def test_guard_allows_labels_and_defaults():
    source = ('def f(machine="diag"):\n'
              '    watchdog.check("ooo", 1)\n'
              '    return registry.group("ooo")\n')
    assert dispatch_sites(ast.parse(source)) == []


# =====================================================================
# Registry
# =====================================================================

class TestRegistry:
    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            machines.get("vliw")

    def test_every_machine_complete(self):
        for name in machines.NAMES:
            machine = machines.get(name)
            assert machine.name == name
            assert machine.default_preset in machine.presets
            assert machine.fault_sites
            assert callable(machine.collector)

    def test_config_resolution(self):
        diag = machines.get("diag")
        assert diag.config() is CONFIG_PRESETS["F4C32"]
        cfg = diag.config("F4C2", {"num_clusters": 4})
        assert cfg.num_clusters == 4 and cfg.name == "F4C2"
        ooo = machines.get("ooo").config(overrides={"rob_size": 32})
        assert ooo == OoOConfig(rob_size=32)

    @pytest.mark.parametrize("name,preset,overrides", [
        ("diag", "F4C3", ()),
        ("diag", "F4C2", {"num_clustres": 4}),
        ("ooo", "F4C32", ()),
        ("ooo", None, {"rob": 8}),
    ])
    def test_bad_config_rejected(self, name, preset, overrides):
        with pytest.raises(ValueError):
            machines.get(name).config(preset, overrides)

    def test_describe_inverts_config(self):
        for name in machines.NAMES:
            machine = machines.get(name)
            for preset in machine.presets:
                cfg = machine.config(preset, {"watchdog_window": 77})
                assert machine.describe(cfg) == (
                    preset, (("watchdog_window", 77),))
                assert machine.config(*machine.describe(cfg)) == cfg

    def test_preset_for_crosses_machines_but_not_typos(self):
        ooo = machines.get("ooo")
        assert ooo.preset_for("F4C2") is None
        assert ooo.preset_for("ooo8") == "ooo8"
        with pytest.raises(ValueError):
            ooo.preset_for("F4C3")
        # the config axis is DiAG's presets: an OoO preset never means
        # "the DiAG default"
        with pytest.raises(ValueError):
            machines.get("diag").preset_for("ooo8")

    @pytest.mark.parametrize("argv", [
        ["run", "nn", "--machine", "diag", "--config", "ooo8"],
        ["faults", "nn", "--config", "ooo8"],
        ["verify", "lockstep", "nn", "--machine", "diag",
         "--config", "ooo8"],
    ])
    def test_cli_rejects_presets_off_the_config_axis(self, argv):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


# =====================================================================
# Canonical specs, one key
# =====================================================================

class TestCanonicalSpecs:
    def test_spellings_of_one_run_are_equal(self):
        bare = RunSpec.from_dict({"machine": "diag", "workload": "nn"})
        full = RunSpec.diag("nn")
        posted = RunSpec.from_dict(json.loads(json.dumps(
            dataclasses.asdict(full))))
        assert bare == full == posted
        assert spec_key(bare) == spec_key(full) == spec_key(posted)
        assert bare.config == "F4C32"
        assert RunSpec.ooo("nn").config == "ooo8"

    def test_num_clusters_folds_into_overrides(self):
        spec = RunSpec.diag("nn", num_clusters=4)
        assert spec.config_overrides == (("num_clusters", 4),)
        assert spec == RunSpec.diag(
            "nn", config_overrides={"num_clusters": 4})
        assert spec == RunSpec.from_dict(
            {"machine": "diag", "workload": "nn", "num_clusters": 4})

    def test_threads_and_simt_clamped(self):
        # lud is neither multi-thread nor SIMT capable; ooo never SIMT
        assert RunSpec.diag("lud", threads=4, simt=True) \
            == RunSpec.diag("lud")
        assert RunSpec.diag("nn", threads=4).threads == 4
        assert RunSpec.ooo("streamcluster", simt=True).simt is False
        assert RunSpec.diag("streamcluster", simt=True).simt is True
        assert SampledSpec("nn", machine="ooo", simt=True) \
            == SampledSpec("nn", machine="ooo")

    def test_scale_spelling(self):
        assert RunSpec.diag("nn", scale=1) == RunSpec.diag("nn")

    def test_sampled_defaults_filled(self):
        spec = SampledSpec("nn", machine="ooo")
        assert spec.config == "ooo8"
        assert spec.max_steps is not None

    @pytest.mark.parametrize("doc", [
        {"machine": "diag", "workload": "nn", "config": "F4C3"},
        {"machine": "diag", "workload": "nn",
         "config_overrides": {"num_clustres": 4}},
        {"machine": "ooo", "workload": "nn", "config": "F4C32"},
        {"machine": "ooo", "workload": "nn", "num_clusters": 4},
        {"machine": "diag", "workload": "no-such-kernel"},
        {"machine": "diag", "workload": "nn", "config_overrides": 5},
    ])
    def test_uninterpretable_specs_rejected(self, doc):
        with pytest.raises(ValueError):
            RunSpec.from_dict(doc)

    def test_sampled_ooo_overrides_rejected_when_unknown(self):
        with pytest.raises(ValueError):
            SampledSpec("nn", machine="ooo",
                        config_overrides={"num_clusters": 2})

    def test_key_covers_program_bytes(self):
        spec = RunSpec.diag("nn", scale=0.2)
        other = RunSpec.diag("nn", scale=0.3)
        assert spec.program_digest() != other.program_digest()
        assert spec_key(spec) != spec_key(other)


class TestOoOOverridesApplied:
    def test_fast_forward_off_through_run_specs(self):
        """An ``ooo`` spec's overrides reach the engine: FF off through
        ``run_specs`` is the same run as ``run_baseline`` with an
        ``OoOConfig(fast_forward=False)``, and it really skips nothing."""
        spec = RunSpec.ooo("hotspot", scale=0.2,
                           config_overrides={"fast_forward": False})
        assert spec.resolved_config().fast_forward is False
        pooled = run_specs([spec])[0]
        clear_cache()
        direct = run_baseline("hotspot", scale=0.2,
                              config=OoOConfig(fast_forward=False))
        assert pooled.status == direct.status == "ok"
        assert json.dumps(deterministic_view(pooled.stats),
                          sort_keys=True) == json.dumps(
            deterministic_view(direct.stats), sort_keys=True)
        assert pooled.stat("sim.host.ff_skips") == 0
        assert direct.stat("sim.host.ff_skips") == 0
        clear_cache()
        on = run_baseline("hotspot", scale=0.2)
        assert on.stat("sim.host.ff_skips") > 0

    def test_hand_built_config_is_a_plain_spec(self):
        """``run_baseline(config=...)`` and the matching override spec
        share one cache slot."""
        record = run_baseline("nn", scale=0.2,
                              config=OoOConfig(rob_size=64))
        again = run_specs([RunSpec.ooo(
            "nn", scale=0.2, config_overrides={"rob_size": 64})])[0]
        assert again is record
