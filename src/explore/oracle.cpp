#include "explore/oracle.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace multival::explore {

namespace {

// ---- small codec helpers ----------------------------------------------------

std::string encode_u32(std::uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return out;
}

std::uint32_t decode_u32(std::string_view bytes, const char* who) {
  if (bytes.size() != 4) {
    throw std::runtime_error(std::string(who) + ": malformed state");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

// ---- LTS replay -------------------------------------------------------------

class LtsOracle final : public SuccessorOracle {
 public:
  explicit LtsOracle(const lts::Lts& l) : lts_(l) {}

  std::string initial() override { return encode_u32(lts_.initial_state()); }

  void successors(std::string_view state, std::vector<Step>& out) override {
    const lts::StateId s = decode_u32(state, "lts_oracle");
    for (const lts::OutEdge& e : lts_.out(s)) {
      out.push_back(Step{std::string(lts_.actions().name(e.action)),
                         encode_u32(e.dst)});
    }
  }

  OraclePtr clone() const override { return std::make_unique<LtsOracle>(lts_); }

 private:
  const lts::Lts& lts_;
};

// ---- IMC as an LTS-level oracle ---------------------------------------------

class ImcOracle final : public SuccessorOracle {
 public:
  explicit ImcOracle(const imc::Imc& m) : imc_(m) {}

  std::string initial() override { return encode_u32(imc_.initial_state()); }

  void successors(std::string_view state, std::vector<Step>& out) override {
    const imc::StateId s = decode_u32(state, "imc_oracle");
    for (const imc::InterEdge& e : imc_.interactive(s)) {
      out.push_back(Step{std::string(imc_.actions().name(e.action)),
                         encode_u32(e.dst)});
    }
    for (const imc::MarkEdge& e : imc_.markovian(s)) {
      std::ostringstream os;  // matches imc_io's rate_label
      if (!e.label.empty()) {
        os << e.label << "; ";
      }
      os << "rate " << e.rate;
      out.push_back(Step{os.str(), encode_u32(e.dst)});
    }
  }

  OraclePtr clone() const override { return std::make_unique<ImcOracle>(imc_); }

 private:
  const imc::Imc& imc_;
};

}  // namespace

OraclePtr lts_oracle(const lts::Lts& l) {
  return std::make_unique<LtsOracle>(l);
}

OraclePtr imc_oracle(const imc::Imc& m) {
  return std::make_unique<ImcOracle>(m);
}

}  // namespace multival::explore
