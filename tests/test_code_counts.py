import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_counts.py"

# one If, one IfExp, one defaulted parameter, one dataclass field and one
# module constant; the comprehension filter, the while loop, the lower-case
# module name and the annotation of a plain class are not counted
MODULE = '''"""A module with one of each counted construct."""
from dataclasses import dataclass

LIMIT = 3
scale = 2.0


@dataclass(frozen=True)
class Point:
    x: float


class Plain:
    y: float


def clip(value, top=LIMIT):
    while False:
        pass
    kept = [v for v in range(3) if v]
    if value > top:
        return top
    return value if value >= 0 else kept
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_package_with_known_figures(tmp_path, capsys):
    code_counts = load_script()
    (tmp_path / "one.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("not a module\n")
    lines = len(MODULE.splitlines())
    assert code_counts.counts(tmp_path) == (lines, 2, 3)
    # the modules of a package add up
    (tmp_path / "two.py").write_text(MODULE)
    assert code_counts.counts(tmp_path) == (2 * lines, 4, 6)
    assert code_counts.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"lines {2 * lines}\nbranches (If/IfExp) 4\n"
                                       "settable values 6\n")
