import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import flowgames as fg


def bundled_text(name: str) -> str:
    return resources.files("flowgames").joinpath(f"examples/{name}").read_text()


@pytest.fixture(scope="session")
def elfarol():
    return fg.parse_game_file(bundled_text("elfarol.game"))


@pytest.fixture(scope="session")
def pigou_info():
    return fg.parse_game_file(bundled_text("pigou_info.game"))


@pytest.fixture(scope="session")
def pigou_network():
    return fg.parse_game_file(bundled_text("pigou_network.game"))


@pytest.fixture(scope="session")
def pigou_bcwe(pigou_info):
    return fg.parse_outcome_file(bundled_text("pigou_bcwe.outcome"), pigou_info)


@pytest.fixture(scope="session")
def elfarol_cwe(elfarol):
    return fg.parse_outcome_file(bundled_text("elfarol_cwe.outcome"), elfarol)


@pytest.fixture(scope="session")
def fresh_python():
    """Run ``code`` in a fresh interpreter that imports this package and
    return its stdout; keyword arguments are set as environment variables."""
    package_root = str(Path(fg.__file__).resolve().parents[1])

    def run(code: str, **env_vars) -> str:
        env = dict(os.environ, **env_vars)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
