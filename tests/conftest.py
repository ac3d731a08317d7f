from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from modcomplete import default_kb, load_model, parse_corpus, parse_requirement

FIXTURES = Path(__file__).parent / "fixtures"

# Property tests that compare two implementations check agreement, not
# speed; a slow example on a loaded machine must not fail them.
settings.register_profile("modcomplete", deadline=None)
settings.load_profile("modcomplete")

RAILWAY_REQUIREMENT = (
    "Given a Train in running, When the Braking Supervision receives an "
    "Emergency Stop Message, Then the Braking Supervision activates the "
    "Emergency Brake and goes in braking."
)


@pytest.fixture(scope="session")
def railway_model_text() -> str:
    return (FIXTURES / "railway_model.json").read_text(encoding="utf-8")


@pytest.fixture()
def railway_model(railway_model_text):
    return load_model(railway_model_text)


@pytest.fixture(scope="session")
def kb():
    return default_kb()


@pytest.fixture()
def railway_corpus():
    return parse_corpus((FIXTURES / "railway.feature").read_text(encoding="utf-8"))


@pytest.fixture()
def railway_ast(railway_corpus):
    return parse_requirement(railway_corpus[0])
