#include "data/loaders.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace bslrec {

namespace {

// Largest accepted id: the dimension max(id) + 1 must fit in uint32_t.
constexpr long long kMaxId = static_cast<long long>(UINT32_MAX) - 1;

// Parses one file of "user item" lines into `edges`; tracks max ids.
// Returns false (with a stderr diagnostic) on open/parse failure.
bool ParseFile(const std::string& path, std::vector<Edge>& edges,
               uint32_t& max_user, uint32_t& max_item) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bslrec: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    long long u = -1, i = -1;
    if (!(ss >> u >> i) || u < 0 || i < 0 || u > kMaxId || i > kMaxId) {
      std::fprintf(stderr, "bslrec: parse error at %s:%zu: '%s'\n",
                   path.c_str(), line_no, line.c_str());
      return false;
    }
    const uint32_t uu = static_cast<uint32_t>(u);
    const uint32_t ii = static_cast<uint32_t>(i);
    edges.push_back(Edge{uu, ii});
    max_user = std::max(max_user, uu);
    max_item = std::max(max_item, ii);
  }
  return true;
}

}  // namespace

std::optional<Dataset> LoadInteractions(const std::string& train_path,
                                        const std::string& test_path) {
  std::vector<Edge> train, test;
  uint32_t max_user = 0, max_item = 0;
  if (!ParseFile(train_path, train, max_user, max_item)) return std::nullopt;
  if (!ParseFile(test_path, test, max_user, max_item)) return std::nullopt;
  if (train.empty()) {
    std::fprintf(stderr, "bslrec: '%s' contains no interactions\n",
                 train_path.c_str());
    return std::nullopt;
  }
  return Dataset(max_user + 1, max_item + 1, std::move(train),
                 std::move(test));
}

bool SaveInteractions(const Dataset& data, const std::string& train_path,
                      const std::string& test_path) {
  const auto write = [](const std::string& path,
                        const std::vector<Edge>& edges) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bslrec: cannot write '%s'\n", path.c_str());
      return false;
    }
    for (const Edge& e : edges) out << e.user << ' ' << e.item << '\n';
    // The last lines may still sit in the stream's buffer: close flushes
    // them, and a failed flush (a full disk) must fail the save.
    out.close();
    if (!out) {
      std::fprintf(stderr, "bslrec: writing '%s' failed\n", path.c_str());
      return false;
    }
    return true;
  };
  return write(train_path, data.train_edges()) &&
         write(test_path, data.test_edges());
}

}  // namespace bslrec
