// Tests for the CLI flag parser.

#include "support/cli.h"

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "support/require.h"

namespace bc::support {
namespace {

CliFlags make_flags() {
  CliFlags flags("test program");
  flags.define_int("nodes", 100, "node count");
  flags.define_double("radius", 20.0, "bundle radius");
  flags.define_string("algo", "bc", "algorithm name");
  flags.define_bool("verbose", false, "chatty output");
  return flags;
}

bool parse(CliFlags& flags, std::vector<const char*> args,
           std::string* errors = nullptr) {
  args.insert(args.begin(), "prog");
  std::ostringstream err;
  const bool ok =
      flags.parse(static_cast<int>(args.size()), args.data(), err);
  if (errors != nullptr) *errors = err.str();
  return ok;
}

TEST(CliFlagsTest, DefaultsApplyWithoutArguments) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {}));
  EXPECT_EQ(flags.get_int("nodes"), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("radius"), 20.0);
  EXPECT_EQ(flags.get_string("algo"), "bc");
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(CliFlagsTest, EqualsFormParses) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--nodes=42", "--radius=3.5", "--algo=sc"}));
  EXPECT_EQ(flags.get_int("nodes"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("radius"), 3.5);
  EXPECT_EQ(flags.get_string("algo"), "sc");
}

TEST(CliFlagsTest, SpaceFormParses) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--nodes", "7"}));
  EXPECT_EQ(flags.get_int("nodes"), 7);
}

TEST(CliFlagsTest, BareBooleanSetsTrue) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--verbose"}));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(CliFlagsTest, ExplicitBooleanValues) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {"--verbose=true"}));
  EXPECT_TRUE(flags.get_bool("verbose"));
  CliFlags flags2 = make_flags();
  ASSERT_TRUE(parse(flags2, {"--verbose=off"}));
  EXPECT_FALSE(flags2.get_bool("verbose"));
}

TEST(CliFlagsTest, UnknownFlagFails) {
  CliFlags flags = make_flags();
  std::string errors;
  EXPECT_FALSE(parse(flags, {"--bogus=1"}, &errors));
  EXPECT_NE(errors.find("unknown flag"), std::string::npos);
  // A trailing unknown switch is unknown, not a flag missing its value.
  CliFlags trailing = make_flags();
  std::string trailing_errors;
  EXPECT_FALSE(parse(trailing, {"--bogus"}, &trailing_errors));
  EXPECT_NE(trailing_errors.find("unknown flag --bogus"), std::string::npos);
}

TEST(CliFlagsTest, MalformedNumberFails) {
  CliFlags flags = make_flags();
  std::string errors;
  EXPECT_FALSE(parse(flags, {"--nodes=abc"}, &errors));
  EXPECT_NE(errors.find("expects an integer"), std::string::npos);
}

TEST(CliFlagsTest, MissingValueFails) {
  CliFlags flags = make_flags();
  std::string errors;
  EXPECT_FALSE(parse(flags, {"--nodes"}, &errors));
  EXPECT_NE(errors.find("missing a value"), std::string::npos);
}

TEST(CliFlagsTest, PositionalArgumentFails) {
  CliFlags flags = make_flags();
  EXPECT_FALSE(parse(flags, {"oops"}));
}

TEST(CliFlagsTest, HelpShortCircuits) {
  CliFlags flags = make_flags();
  std::string errors;
  EXPECT_TRUE(parse(flags, {"--help"}, &errors));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(errors.find("--nodes"), std::string::npos);
  EXPECT_NE(errors.find("test program"), std::string::npos);
}

TEST(CliFlagsTest, TypeMismatchAccessThrows) {
  CliFlags flags = make_flags();
  ASSERT_TRUE(parse(flags, {}));
  EXPECT_THROW(flags.get_double("nodes"), PreconditionError);
  EXPECT_THROW(flags.get_int("never-defined"), PreconditionError);
}

TEST(CliFlagsTest, DuplicateDefinitionThrows) {
  CliFlags flags = make_flags();
  EXPECT_THROW(flags.define_int("nodes", 1, "dup"), PreconditionError);
}

}  // namespace
}  // namespace bc::support
