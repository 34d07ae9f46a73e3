"""Session set-up shared by the tests under tests/ and bench/tests/."""
import gc


def pytest_collection_finish(session):
    # collection leaves about 92,000 long-lived objects; collect and freeze them
    # once, so no generation-2 collection over them lands inside a timed test
    gc.collect()
    gc.freeze()
