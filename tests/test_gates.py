"""Smoke tests of the on-demand gates, `tests/exhaustive.py` and
`tests/identity.py`, which pytest does not collect.  Each is loaded from its
file as it is and run on one small case, so a renamed helper or result field
that a gate reads fails here, not only when someone runs the gate."""

import importlib.util
import pathlib

from vass import (analyze, instances, parse_vass, serialize_vass,
                  unbounded_core)

TESTS = pathlib.Path(__file__).resolve().parent


def _gate(name):
    spec = importlib.util.spec_from_file_location(
        f"gate_{name}", TESTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exhaustive_checks_a_one_state_instance():
    exhaustive = _gate("exhaustive")
    # the second is the native pass: two guards, unsplit, on a pumpable cycle
    for v in (instances.up(5), parse_vass("state a 1 2\nedge a a 3\n")):
        core = unbounded_core(analyze(v))
        checked = list(exhaustive.membership(core))
        assert checked
        for q, z, member, verdict in checked:
            assert verdict.definite and member == (verdict.answer == "yes"), (
                v, q, z)
        assert exhaustive.fresh_round(core.analysis) == (core.per_chain_max,
                                                         False)


def test_identity_runs_the_cli_on_one_instance_file(tmp_path):
    identity = _gate("identity")
    path = tmp_path / "up.vass"
    path.write_text(serialize_vass(instances.up(5)))
    argv, out, err, code = identity.run(["check", str(path)])
    assert (argv, out.splitlines()[0], code) == (["check", str(path)], "NO", 0)
