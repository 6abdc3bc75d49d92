"""The build script declares the package it installs."""

from __future__ import annotations

import os
import subprocess
import sys

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_declares_the_repro_package_at_its_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    assert completed.stdout.split()[-2:] == ["repro", repro.__version__]
