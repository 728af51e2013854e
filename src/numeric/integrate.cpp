#include "numeric/integrate.h"

#include <array>
#include <cmath>

#include "util/contracts.h"

namespace cny::numeric {

namespace {

// 16-point Gauss–Legendre nodes/weights on [-1, 1] (positive half; mirrored).
constexpr std::array<double, 8> kGlNodes = {
    0.0950125098376374, 0.2816035507792589, 0.4580167776572274,
    0.6178762444026438, 0.7554044083550030, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499};
constexpr std::array<double, 8> kGlWeights = {
    0.1894506104550685, 0.1826034150449236, 0.1691565193950025,
    0.1495959888165767, 0.1246289712555339, 0.0951585116824928,
    0.0622535239386479, 0.0271524594117541};

}  // namespace

const std::array<double, 8>& gl16_nodes() { return kGlNodes; }

const std::array<double, 8>& gl16_weights() { return kGlWeights; }

double integrate_gl(const std::function<double(double)>& f, double a, double b,
                    int panels) {
  CNY_EXPECT(panels >= 1);
  if (a == b) return 0.0;
  double sign = 1.0;
  if (a > b) {
    std::swap(a, b);
    sign = -1.0;
  }
  const double h = (b - a) / panels;
  double total = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double c = a + (p + 0.5) * h;  // panel centre
    const double r = 0.5 * h;            // panel half-width
    double acc = 0.0;
    for (std::size_t i = 0; i < kGlNodes.size(); ++i) {
      acc += kGlWeights[i] * (f(c - r * kGlNodes[i]) + f(c + r * kGlNodes[i]));
    }
    total += acc * r;
  }
  return sign * total;
}

}  // namespace cny::numeric
