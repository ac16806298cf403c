"""The package surface: its six names, and the README's library example run on them."""

import re
from pathlib import Path

import borrowalk

README = Path(__file__).resolve().parent.parent / "README.md"

SURFACE = {
    "LatticeConfig",
    "bound_state",
    "parse_phase",
    "remove_particle",
    "survival_probability",
    "verify_eigenstate",
}


def test_readme_library_example_runs_on_the_package_surface(capsys):
    assert len(borrowalk.__all__) == len(SURFACE)
    assert set(borrowalk.__all__) == SURFACE
    for name in borrowalk.__all__:
        assert callable(getattr(borrowalk, name)), name
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True"
    assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    assert float(lines[1].split()[1]) == 1.0
