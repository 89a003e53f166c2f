"""Package metadata (the only copy: there is no ``pyproject.toml``).

``pip install -e .`` works on minimal offline environments whose setuptools
cannot build PEP 660 editable wheels (no ``wheel`` package).  scipy is the
optional ``fast`` extra: it puts the batch SSSP and point-to-point Dijkstra
on a C backend, and everything runs (on the python kernels) without it — two
of the three CI test legs do.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"fast": ["scipy>=1.10"]},
)
