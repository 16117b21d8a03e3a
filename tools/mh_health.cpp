// mh_health: render (and validate) a live dashboard JSON written by the
// health plane (MH_DASHBOARD=..., see src/obs/health.hpp).
//
// Usage: mh_health <dashboard.json> [--check] [--fail-on-firing]
//
//   --check           exit non-zero unless the file passes structural
//                     validation (schema marker, lane/ring bounds, alert
//                     history consistency) — run by CI on the dashboard
//                     uploaded from the churn chaos drill.
//   --fail-on-firing  additionally exit non-zero if any alert was still
//                     firing when the dashboard was written.
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/health.hpp"
#include "obs/json.hpp"

namespace {

using mh::obs::json::JsonValue;

void render(const JsonValue& root) {
  std::cout << "dashboard @ t=" << root.num("time_s") << " s, tick "
            << root.num("ticks") << ", " << root.num("ranks") << " ranks\n";
  std::cout << "  snapshots: " << root.num("deltas_ingested") << " deltas, "
            << root.num("updates_ingested") << " updates, "
            << root.num("bytes_ingested") << " bytes, "
            << root.num("snapshots_lost") << " lost\n";

  const JsonValue* alerts = root.find("alerts");
  const JsonValue* active =
      alerts != nullptr ? alerts->find("active") : nullptr;
  std::cout << "\nalerts:\n";
  if (active == nullptr || active->array.empty()) {
    std::cout << "  (none active)\n";
  } else {
    for (const JsonValue& a : active->array) {
      const double rank = a.num("rank", -1.0);
      std::cout << "  [" << a.text("state") << "] " << a.text("rule");
      if (rank >= 0.0) std::cout << " rank " << rank;
      std::cout << "  value " << a.num("value") << " vs threshold "
                << a.num("threshold") << " since t=" << a.num("since_s")
                << " s\n";
    }
  }
  const JsonValue* history =
      alerts != nullptr ? alerts->find("history") : nullptr;
  if (history != nullptr && !history->array.empty()) {
    std::cout << "  history (" << history->array.size() << " transitions):\n";
    for (const JsonValue& ev : history->array) {
      const double rank = ev.num("rank", -1.0);
      std::cout << "    t=" << std::setw(10) << ev.num("time_s") << " s  "
                << std::setw(8) << ev.text("state") << "  " << ev.text("rule");
      if (rank >= 0.0) std::cout << " rank " << rank;
      std::cout << "\n";
    }
  }

  const JsonValue* instruments = root.find("instruments");
  if (instruments != nullptr) {
    std::cout << "\ninstruments (" << instruments->array.size() << "):\n";
    for (const JsonValue& inst : instruments->array) {
      std::cout << "  " << inst.text("name") << " [" << inst.text("kind")
                << "]";
      const std::string_view kind = inst.text("kind");
      if (kind == "counter") {
        std::cout << "  total " << inst.num("total");
      } else if (kind == "gauge") {
        std::cout << "  min/median/max " << inst.num("min") << " / "
                  << inst.num("median") << " / " << inst.num("max");
      }
      const JsonValue* ring = inst.find("ring");
      if (ring != nullptr) {
        std::cout << "  (" << ring->array.size() << " ring points";
        if (inst.num("ring_evicted") > 0.0) {
          std::cout << ", " << inst.num("ring_evicted") << " evicted";
        }
        std::cout << ")";
      }
      std::cout << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool check = false;
  bool fail_on_firing = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--fail-on-firing") == 0) {
      fail_on_firing = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: mh_health <dashboard.json> [--check] "
                   "[--fail-on-firing]\n";
      return 0;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::cerr << "unexpected argument: " << argv[i] << "\n";
      return 2;
    }
  }
  if (path == nullptr) {
    std::cerr << "usage: mh_health <dashboard.json> [--check] "
                 "[--fail-on-firing]\n";
    return 2;
  }

  std::ifstream is(path);
  if (!is) {
    std::cerr << "mh_health: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  std::string error;
  if (!mh::obs::json::parse(text, &root, &error)) {
    std::cerr << "mh_health: " << error << "\n";
    return 2;
  }
  std::cout << "dashboard: " << path << "\n";
  render(root);

  const mh::obs::DashboardCheck result =
      mh::obs::check_dashboard_text(text);
  if (check) {
    if (!result.ok) {
      std::cerr << "\ncheck FAILED:\n";
      for (const std::string& p : result.problems) {
        std::cerr << "  - " << p << "\n";
      }
      return 1;
    }
    std::cout << "\ncheck OK: " << result.instruments << " instruments, "
              << result.history << " alert transitions, structure valid\n";
  }
  if (fail_on_firing && result.firing > 0) {
    std::cerr << "\n" << result.firing << " alert(s) still firing\n";
    return 1;
  }
  return 0;
}
