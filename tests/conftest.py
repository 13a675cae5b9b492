import sys

from hypothesis import HealthCheck, settings

settings.register_profile(
    "kernel",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kernel")


def _entered(production, run) -> set:
    """The names of the functions in ``production`` that ``run()`` calls."""
    forbidden = {f.__code__: f.__qualname__ for f in production}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in forbidden:
            entered.add(forbidden[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered
