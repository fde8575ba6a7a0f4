"""The statement accounting of ``scripts/reach.py`` on a small fixture."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", SCRIPT)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

FIXTURE = '''\
def pick(x, mode="plain"):
    """Two branches, one taken."""
    if mode == "plain":
        y = (x +
             1)
    else:
        y = -x
    try:
        z = 1 / x
    except ZeroDivisionError:
        z = 0.0

    def inner():
        return y

    return y + z


class Box:
    def get(self):
        global COUNT
        return 1


def never():
    return pick(1)
'''


def test_statements_and_unrun_lines_of_a_two_branch_fixture(tmp_path):
    path = tmp_path / "fixture_two_branch.py"
    path.write_text(FIXTURE)
    assert reach.statements(path) == {
        "pick": [(3, 3), (4, 5), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11), (13, 13), (16, 16)],
        "pick.<locals>.inner": [(14, 14)],
        "Box.get": [(22, 22)],
        "never": [(26, 26)],
    }
    tracer = reach.LineTracer(tmp_path)
    module_spec = importlib.util.spec_from_file_location("fixture_two_branch", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    with tracer.running():
        assert module.pick(2) == 3.5
        assert module.Box().get() == 1
    assert sys.gettrace() is None
    # only the fixture's file is recorded, and only lines that ran
    ran = tracer.lines[str(path.resolve())]
    assert list(tracer.lines) == [str(path.resolve())]
    assert {3, 4, 8, 9, 13, 16, 22} <= ran and not ran & {7, 10, 11, 14, 26}
    assert reach.unrun(path, ran) == {"pick": [7, 10, 11], "pick.<locals>.inner": [14], "never": [26]}
    # the other branch, the handler and the nested function
    with tracer.running():
        assert module.pick(0, mode="negated") == 0.0
    assert reach.unrun(path, tracer.lines[str(path.resolve())]) == {"pick.<locals>.inner": [14], "never": [26]}


def test_ranges():
    assert reach._ranges([3, 5, 6, 7, 10]) == "3, 5-7, 10"
    assert reach._ranges([]) == ""
