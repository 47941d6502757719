"""Package metadata: ``pip install -e .`` installs ``repro`` from ``src/``.

This file is the only build configuration (there is no ``pyproject.toml``).
"""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LIDC: Location Independent Data and Compute — a name-based "
        "multi-cluster computing framework (SC-W 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "networkx>=3.0"],
)
