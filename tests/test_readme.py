import re
from pathlib import Path

from vass import instances, serialize_vass

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the fenced python block of the "Library" section, run as written next
    # to the demo instance the README tells how to write
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "demo.vass").write_text(serialize_vass(instances.demo_guarded()))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\nTrue\n"
