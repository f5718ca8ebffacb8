import pytest

from breathsentinel import load_corpus
from helpers import write_desk_corpus


@pytest.fixture(scope="session")
def desk_corpus_dir(tmp_path_factory):
    """A 140-per-class corpus on disk, big enough for split plans (>= 400 clips)."""
    root = tmp_path_factory.mktemp("corpus")
    write_desk_corpus(root)
    return root


@pytest.fixture(scope="session")
def desk_corpus(desk_corpus_dir):
    return load_corpus(desk_corpus_dir)
