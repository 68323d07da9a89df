import importlib
import importlib.util
from pathlib import Path


def test_every_traced_name_resolves_in_the_package():
    # perfbench/tracer.py wraps each TARGETS (module, qualname) of preproj
    # and raises on a missing one, which fails every traced benchmark run;
    # a method must be defined in its class itself, as install reads the
    # class __dict__
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for prefix, (modname, qual, _stats) in tracer.TARGETS.items():
        home = importlib.import_module(f"preproj.{modname}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(prefix)
    assert missing == []
