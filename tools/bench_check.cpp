// CI perf-smoke gate: compare freshly generated BENCH_*.json files against
// the committed baselines in bench/baselines/ and fail when any metric
// drifts beyond the tolerance (default +/-10%).
//
// Usage: bench_check <baseline_dir> <candidate_dir> [tolerance] [FILE=TOL...]
//   Every BENCH_*.json in <baseline_dir> must exist in <candidate_dir> with
//   the same rows (by label) and every numeric field within tolerance of
//   its baseline value.  Extra candidate files/fields are ignored, so new
//   benches can land before their baselines do.
//
//   Trailing FILE=TOL arguments override the tolerance per baseline file,
//   e.g. `BENCH_walltime.json=0.25` — wall-clock benches get a generous
//   band while the deterministic counter benches stay tight.
//
//   FILE:ROWPREFIX=TOL narrows an override to the rows of FILE whose label
//   starts with ROWPREFIX, e.g. `BENCH_throughput.json:window_=0.30` — the
//   per-window telemetry rows ride a wide band while the same file's
//   aggregate rows stay on the file/default tolerance.  Prefix-scoped rows
//   are also allowed to disappear from the candidate's tail: a faster run
//   closes fewer windows, so a missing `window_7` is reported as skipped,
//   not as missing data.
//
// Exit codes (CI distinguishes "perf regressed" from "bench never ran"):
//   0  every metric within tolerance
//   1  at least one metric out of tolerance (and nothing missing)
//   2  usage error, including a tolerance that is not a non-negative number
//   3  missing data: baseline or candidate path not a directory, candidate
//      file absent, unparseable JSON, row/field missing from the candidate,
//      or no BENCH_*.json baselines at all
//
// The parser below handles exactly the flat format bench/json_out.hpp
// emits ({"bench": ..., "rows": [{"label": ..., key: number, ...}]}) — the
// repo takes no JSON library dependency for a 60-line need.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchFile {
  // row label -> field name -> value
  std::map<std::string, std::map<std::string, double>> rows;
};

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

std::string parse_string(const std::string& s, std::size_t& i) {
  if (s.at(i) != '"') throw std::runtime_error("expected '\"'");
  std::string out;
  for (++i; s.at(i) != '"'; ++i) {
    if (s[i] == '\\') ++i;  // json_out never escapes, but stay safe
    out.push_back(s[i]);
  }
  ++i;
  return out;
}

double parse_number(const std::string& s, std::size_t& i) {
  std::size_t end = i;
  while (end < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[end])) || s[end] == '-' ||
          s[end] == '+' || s[end] == '.' || s[end] == 'e' || s[end] == 'E'))
    ++end;
  const double v = std::stod(s.substr(i, end - i));
  i = end;
  return v;
}

/// Parse one {"label": "...", key: number, ...} row object.
void parse_row(const std::string& s, std::size_t& i, BenchFile& out) {
  if (s.at(i) != '{') throw std::runtime_error("expected '{'");
  ++i;
  std::string label;
  std::map<std::string, double> fields;
  while (true) {
    skip_ws(s, i);
    const std::string key = parse_string(s, i);
    skip_ws(s, i);
    if (s.at(i) != ':') throw std::runtime_error("expected ':'");
    ++i;
    skip_ws(s, i);
    if (key == "label")
      label = parse_string(s, i);
    else
      fields[key] = parse_number(s, i);
    skip_ws(s, i);
    if (s.at(i) == ',') {
      ++i;
      continue;
    }
    if (s.at(i) == '}') {
      ++i;
      break;
    }
    throw std::runtime_error("expected ',' or '}' in row");
  }
  if (label.empty()) throw std::runtime_error("row without label");
  out.rows[label] = std::move(fields);
}

/// A tolerance argument: the whole string must be a finite number >= 0.
/// (atof would read "abc" as 0 and silently demand exact equality.)
bool parse_tolerance(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return *end == '\0' && std::isfinite(out) && out >= 0.0;
}

BenchFile parse_file(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path.string());
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string s = buf.str();

  BenchFile out;
  std::size_t i = s.find("\"rows\"");
  if (i == std::string::npos) throw std::runtime_error("no rows array");
  i = s.find('[', i);
  if (i == std::string::npos) throw std::runtime_error("no '[' after rows");
  ++i;
  while (true) {
    skip_ws(s, i);
    if (s.at(i) == ']') break;
    parse_row(s, i, out);
    skip_ws(s, i);
    if (s.at(i) == ',') ++i;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: bench_check <baseline_dir> <candidate_dir> "
                 "[tolerance=0.10] [FILE=TOL...] [FILE:ROWPREFIX=TOL...]\n";
    return 2;
  }
  const std::filesystem::path baseline_dir = argv[1];
  const std::filesystem::path candidate_dir = argv[2];
  double default_tolerance = 0.10;
  std::map<std::string, double> per_file_tolerance;
  // file -> (row-label prefix -> tolerance); prefix rows may also vanish
  // from the candidate's tail (see the header comment).
  std::map<std::string, std::map<std::string, double>> per_row_tolerance;
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    const std::size_t eq = arg.find('=');
    const std::string value =
        eq == std::string::npos ? arg : arg.substr(eq + 1);
    double tol = 0.0;
    if (!parse_tolerance(value, tol)) {
      std::cerr << "bench_check: tolerance '" << value << "' in argument '"
                << arg << "' is not a non-negative number\n";
      return 2;
    }
    if (eq == std::string::npos) {
      default_tolerance = tol;
    } else {
      const std::string target = arg.substr(0, eq);
      const std::size_t colon = target.find(':');
      if (colon == std::string::npos)
        per_file_tolerance[target] = tol;
      else
        per_row_tolerance[target.substr(0, colon)]
                         [target.substr(colon + 1)] = tol;
    }
  }

  for (const auto& dir : {baseline_dir, candidate_dir}) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      std::cerr << "FAIL: " << dir << " is not a directory\n";
      return 3;
    }
  }

  int checked = 0, out_of_tolerance = 0, missing = 0, skipped_rows = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(baseline_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json")
      continue;
    const auto override_it = per_file_tolerance.find(name);
    const double tolerance = override_it != per_file_tolerance.end()
                                 ? override_it->second
                                 : default_tolerance;
    const std::filesystem::path candidate = candidate_dir / name;
    if (!std::filesystem::exists(candidate)) {
      std::cerr << "FAIL " << name << ": candidate file missing (bench not "
                << "run?)\n";
      ++missing;
      continue;
    }
    BenchFile base, cand;
    try {
      base = parse_file(entry.path());
      cand = parse_file(candidate);
    } catch (const std::exception& e) {
      std::cerr << "FAIL " << name << ": " << e.what() << '\n';
      ++missing;
      continue;
    }
    const auto row_overrides_it = per_row_tolerance.find(name);
    for (const auto& [label, fields] : base.rows) {
      // Longest matching row-prefix override, if any, wins over the file
      // tolerance for this row.
      double row_tolerance = tolerance;
      bool prefix_scoped = false;
      if (row_overrides_it != per_row_tolerance.end()) {
        std::size_t best_len = 0;
        for (const auto& [prefix, tol] : row_overrides_it->second) {
          if (label.rfind(prefix, 0) == 0 && prefix.size() >= best_len) {
            best_len = prefix.size();
            row_tolerance = tol;
            prefix_scoped = true;
          }
        }
      }
      const auto row = cand.rows.find(label);
      if (row == cand.rows.end()) {
        if (prefix_scoped) {
          std::cout << "skip " << name << ": windowed row '" << label
                    << "' absent from candidate (run closed fewer "
                    << "windows)\n";
          ++skipped_rows;
          continue;
        }
        std::cerr << "FAIL " << name << ": row '" << label
                  << "' missing from candidate\n";
        ++missing;
        continue;
      }
      for (const auto& [key, expect] : fields) {
        const auto got = row->second.find(key);
        if (got == row->second.end()) {
          std::cerr << "FAIL " << name << ": " << label << "." << key
                    << " missing from candidate\n";
          ++missing;
          continue;
        }
        ++checked;
        const double actual = got->second;
        // Tolerance is relative to the baseline; an exact-zero baseline
        // demands an exact zero (these are deterministic simulations).
        const bool ok =
            expect == 0.0
                ? actual == 0.0
                : std::abs(actual - expect) <=
                      row_tolerance * std::abs(expect);
        if (!ok) {
          std::cerr << "FAIL " << name << ": " << label << "." << key << " = "
                    << actual << ", baseline " << expect << " (|delta| "
                    << std::abs(actual / expect - 1.0) * 100.0 << "% > "
                    << row_tolerance * 100.0 << "%)\n";
          ++out_of_tolerance;
        }
      }
    }
  }

  if (checked == 0 && missing == 0) {
    std::cerr << "FAIL: no BENCH_*.json baselines found in " << baseline_dir
              << '\n';
    return 3;
  }
  if (missing) {
    std::cerr << missing << " metric(s)/file(s) missing"
              << (out_of_tolerance
                      ? ", " + std::to_string(out_of_tolerance) +
                            " out of tolerance"
                      : std::string())
              << " (" << checked << " checked)\n";
    return 3;
  }
  if (out_of_tolerance) {
    std::cerr << out_of_tolerance << " metric(s) out of tolerance ("
              << checked << " checked)\n";
    return 1;
  }
  std::cout << "bench_check: " << checked << " metrics within "
            << default_tolerance * 100.0 << "% of baseline"
            << (per_file_tolerance.empty()
                    ? std::string()
                    : " (" + std::to_string(per_file_tolerance.size()) +
                          " per-file override(s))")
            << (skipped_rows
                    ? ", " + std::to_string(skipped_rows) +
                          " windowed row(s) skipped"
                    : std::string())
            << '\n';
  return 0;
}
