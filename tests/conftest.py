import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_make_parametrize_id(config, val, argname):
    # a ``system`` parameter is named as the system it chooses, as in
    # test_dual_of_each_rule[System.CLASSICAL-...], though System is Dialect
    from peirce.calculus import System
    if argname == "system" and isinstance(val, System):
        return f"System.{val.name}"
    return None
