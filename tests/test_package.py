"""scipy stays inside the oracles, and the package itself loads no module."""

import subprocess
import sys
from pathlib import Path

import stpg


def test_only_the_oracle_module_names_scipy():
    # the test oracles gather in stpg.oracle, the one module that may load
    # scipy; every other module runs on numpy alone
    naming = sorted(path.name for path in Path(stpg.__file__).parent.glob("*.py")
                    if "scipy" in path.read_text().lower())
    assert naming == ["oracle.py"]


def test_importing_the_package_loads_no_module():
    # the modules are the API: the package names none of them itself
    code = "import sys, stpg; print(sorted(m for m in sys.modules if m.startswith('stpg.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"
