from hypothesis import settings

# Every run draws the same examples, so a pass or a failure repeats; each
# test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
