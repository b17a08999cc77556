"""Timed linear session types: a type checker, a difference-logic solver
with SMT-LIB2 export, a timed runtime, and a trace monitor."""

__version__ = "0.1.0"


def corpus_path(name: str) -> str:
    """Filesystem path of a shipped example (e.g. ``smart_home.tsl``)."""
    from importlib import resources  # loads pathlib and zipfile: kept off import
    return str(resources.files("tillst").joinpath("corpus", name))


def corpus_files() -> list:
    from importlib import resources
    base = resources.files("tillst").joinpath("corpus")
    return sorted(str(p) for p in base.iterdir() if str(p).endswith(".tsl"))
