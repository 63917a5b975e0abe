"""Setup shim so legacy editable installs work in offline environments.

The environment has setuptools but no ``wheel`` package, which breaks the
PEP 660 editable path (``bdist_wheel``).  ``pip install -e . --no-build-isolation
--no-use-pep517`` (or plain ``pip install -e .`` on newer toolchains) works
through this shim.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ssrec",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
