"""Setuptools shim for environments without PEP 517 build isolation.

Install for development with ``pip install -e .[dev]`` — the ``dev`` extra
is the single source of truth for the test/lint/benchmark toolchain (every
CI job installs exactly this, so dependency drift cannot diverge between
jobs).
"""

from setuptools import find_packages, setup

setup(
    name="pollux-repro",
    version="0.5.0",
    description=(
        "Reproduction of Pollux: co-adaptive cluster scheduling for "
        "goodput-optimized deep learning (OSDI 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy",
        "scipy>=1.15",
    ],
    extras_require={
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-xdist",
            "hypothesis",
            "ruff",
        ],
    },
)
