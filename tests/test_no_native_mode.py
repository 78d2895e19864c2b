"""Dual-mode guard: the routing/batch/resilience suites must pass with
the native kernel disabled (``REPRO_NO_NATIVE=1``).

The pure-NumPy path is the fallback every resilience feature leans on
(worker-chunk retries, armed fault plans, kernels that fail to compile)
and the walk of every non-plain C7 route and of the ML1/ML2/filter
wrappers' hooks, so it is exercised here as a
first-class configuration, not a fallback that only sees production
traffic.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

DUAL_MODE_SUITES = [
    "tests/test_routing.py",
    "tests/test_batch.py",
    "tests/test_resilience.py",
    "tests/test_faults.py",
    "tests/test_observability.py",
    "tests/test_parallel_determinism.py",
    "tests/test_compressed.py",
    "tests/test_sharded.py",
    "tests/test_updates.py",
    "tests/test_serving.py",
    "tests/test_search_hashes.py",
    "tests/test_native_binding.py",
    "tests/test_ml.py",
    "tests/test_extensions.py",
    "tests/test_build_engine.py",
]


@pytest.mark.slow
@pytest.mark.faults
@pytest.mark.skipif(
    os.environ.get("REPRO_NO_NATIVE") == "1",
    reason="REPRO_NO_NATIVE=1 is already set: this run executes the dual-mode "
           "suites in-process in pure-NumPy mode, so the subprocess would "
           "repeat them unchanged",
)
def test_suites_pass_without_native_kernel():
    env = dict(os.environ)
    env["REPRO_NO_NATIVE"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *DUAL_MODE_SUITES],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, (
        f"pure-NumPy mode failed:\n{proc.stdout}\n{proc.stderr}"
    )


@pytest.mark.faults
def test_no_native_env_disables_library():
    env = dict(os.environ)
    env["REPRO_NO_NATIVE"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro import _native; "
         "assert _native.LIB is None; "
         "assert _native.LOAD_ERROR is not None; "
         "print('ok')"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


@pytest.mark.faults
def test_load_error_kind_classifies_opt_out():
    env = dict(os.environ)
    env["REPRO_NO_NATIVE"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro import _native; "
         "assert _native.LOAD_ERROR_KIND == 'disabled', "
         "_native.LOAD_ERROR_KIND; "
         "print('ok')"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


def test_load_error_kind_distinguishes_pthread_link_failure():
    """A stderr mentioning pthread classifies as the MT kernel's one new
    failure mode, not a generic compile error."""
    from repro import _native

    assert _native._classify_failure(
        "compile", "ld: cannot find -lpthread"
    ) == "link_pthread"
    assert _native._classify_failure(
        "compile", "syntax error near line 3"
    ) == "compile"
    assert _native._classify_failure("load", "undefined symbol: "
                                     "pthread_create") == "link_pthread"
    # and the live module agrees with its own library state
    if _native.LIB is not None:
        assert _native.LOAD_ERROR_KIND is None
    else:
        assert _native.LOAD_ERROR_KIND is not None
