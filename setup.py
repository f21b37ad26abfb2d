"""Legacy setup shim so `pip install -e .` works on older setuptools."""

from setuptools import setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    # Declared explicitly (rather than find_packages) so a subpackage
    # missing from a wheel is a loud diff here, and so the import smoke
    # test (tests/test_imports.py) and this list stay in lockstep.
    packages=[
        "repro",
        "repro.baselines",
        "repro.crypto",
        "repro.dpf",
        "repro.exec",
        "repro.gpu",
        "repro.obs",
        "repro.pir",
        "repro.serve",
    ],
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6"],
    },
)
